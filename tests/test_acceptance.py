"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

from gradlab import analysis as an
from gradlab import architectures as ar
from gradlab import cli
from gradlab import flows as fl
from gradlab import growth as gr
from gradlab import problems as pr
from gradlab import spaces as sp
from gradlab import traceio

from conftest import gram_at, smooth_random_field
from test_architectures import banded_sinusoid_params
from test_flows import double_well_fixture


def report(number, name, checks, started, budget):
    elapsed = time.time() - started
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed and elapsed < budget else "FAIL"
    detail = f"({elapsed:.1f}s of {budget:.0f}s budget)"
    if failed:
        detail += " failed: " + ", ".join(failed)
    print(f"\nACCEPTANCE {number} [{name}]: {status} {detail}")
    assert not failed, f"criterion {number} failed: {failed}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"


def test_criterion_1_rate_laws(basis_64):
    started = time.time()
    b = sp.field_from_modes(basis_64, [(1, 1.0)])
    b = b * (np.sqrt(2.0) / sp.norm(b))
    zero_target = pr.quadratic_problem(basis_64, sp.zero_field(basis_64))
    w0 = ar.ParamVector(np.array([1.0]))

    t_quad = time.time()
    quadratic = ar.affine_architecture([b])
    tr_quad = fl.integrate_parametric(
        zero_target, quadratic, w0, fl.FlowConfig(t_end=8.0, record_every=0.02)
    )
    rc_quad = an.classify_rate(tr_quad, 0.0)
    t_quad = time.time() - t_quad

    t_quart = time.time()
    quartic = ar.curve_architecture([([0.0, 0.0, 1.0], b)])
    tr_quart = fl.integrate_parametric(
        zero_target, quartic, w0, fl.FlowConfig(t_end=2e5, record_every=40.0)
    )
    rc_quart = an.classify_rate(tr_quart, 0.0)
    t_quart = time.time() - t_quart

    checks = [
        ("quadratic classifies exponential", rc_quad is not None and rc_quad.kind == "exponential"),
        ("quadratic alpha* = 0.5 +- 0.02",
         rc_quad is not None and abs(rc_quad.predicted_alpha - 0.5) <= 0.02),
        ("quartic classifies polynomial", rc_quart is not None and rc_quart.kind == "polynomial"),
        ("quartic distance exponent 0.5 +- 0.05",
         rc_quart is not None and abs(rc_quart.exponent - 0.5) <= 0.05),
        ("quartic alpha* = 0.75 +- 0.03",
         rc_quart is not None and abs(rc_quart.predicted_alpha - 0.75) <= 0.03),
        ("each flow under 5 s", t_quad < 5.0 and t_quart < 5.0),
    ]
    report(1, "rate laws", checks, started, budget=10.0)


def test_criterion_2_spectral_equality(basis_256):
    started = time.time()
    arch = ar.sinusoid_architecture(basis_256, 2)
    rng = np.random.default_rng(2024)
    worst = 0.0
    all_pass = True
    for _ in range(10):
        w = ar.ParamVector(banded_sinusoid_params(rng, 2))
        rep = ar.spectral_consistency(arch, w, sp.SobolevOrder.L2)
        worst = max(worst, rep.max_relative_mismatch)
        all_pass &= rep.passed
    checks = [
        ("all 10 draws consistent", all_pass),
        ("max relative mismatch <= 1e-8", worst <= 1e-8),
    ]
    report(2, "spectral equality", checks, started, budget=30.0)


def test_criterion_3_gradient_correctness(basis_128):
    started = time.time()
    rng = np.random.default_rng(7)
    checks = []

    # nominal-loss gradients for both shipped problems, including the
    # Sobolev-converted residual gradient of the PDE problem
    phi = sp.field_from_modes(basis_128, [(1, 0.6), (2, 0.25)])
    for problem in (
        pr.quadratic_problem(basis_128, phi),
        pr.npbe_problem(basis_128, phi),
    ):
        metric = problem.gradient_metric
        g = smooth_random_field(basis_128, rng)
        ev = pr.nominal_loss(problem, g)
        ok = True
        for _ in range(20):
            v = smooth_random_field(basis_128, rng, scale=1.0)
            v = v * (1.0 / sp.norm(v, metric))
            eps = 1e-5
            fd = (
                pr.nominal_loss(problem, g + eps * v).value
                - pr.nominal_loss(problem, g - eps * v).value
            ) / (2 * eps)
            analytic = sp.inner_product(ev.gradient, v, metric)
            ok &= abs(fd - analytic) <= 1e-5 * max(abs(fd), 1e-12)
        checks.append((f"{problem.name} nominal gradient", ok))

    # parametric gradients for every shipped architecture kind
    quad = pr.quadratic_problem(basis_128, phi)
    curve_b = sp.field_from_modes(basis_128, [(1, 1.0)])
    plane = pr.quadratic_problem(
        ar.spiral_architecture().target_basis,
        sp.Field(np.array([3.0, -2.0]), ar.spiral_architecture().target_basis),
    )
    cases = [
        ("sinusoid", quad, ar.sinusoid_architecture(basis_128, 2),
         lambda: banded_sinusoid_params(rng, 2)),
        ("affine", quad, ar.affine_architecture(
            [sp.Field(np.eye(128)[k] / np.sqrt(np.pi), basis_128) for k in (0, 1, 2)]
        ), lambda: rng.standard_normal(3)),
        ("spiral", plane, ar.spiral_architecture(), lambda: rng.uniform(-4, 4, 1)),
        ("curve", quad, ar.curve_architecture([([0, 1.0, 0.3, -0.1], curve_b)]),
         lambda: rng.uniform(-2, 2, 1)),
        ("sinusoid-npbe", pr.npbe_problem(basis_128, phi),
         ar.sinusoid_architecture(basis_128, 2),
         lambda: np.array([0.05, 1.05, 0.5, 2.1, 0.2]) + 0.05 * rng.standard_normal(5)),
    ]
    for label, problem, arch, draw in cases:
        obj = fl.ParametricObjective(problem, arch)
        ok = True
        for _ in range(20):
            w = draw()
            _, grad, _ = obj.value_and_grad(w)
            eps = 1e-6
            for i in range(w.size):
                e = np.zeros(w.size)
                e[i] = eps
                fd = (
                    obj.value_and_grad(w + e)[0] - obj.value_and_grad(w - e)[0]
                ) / (2 * eps)
                ok &= abs(fd - grad[i]) <= 1e-5 * max(abs(fd), 1e-9)
        checks.append((f"{label} parametric gradient", ok))
    report(3, "gradient correctness", checks, started, budget=60.0)


def test_criterion_4_growth_loop(basis_128):
    started = time.time()
    phi = sp.field_from_modes(basis_128, [(0, 1.0), (1, 0.5), (3, 0.25)])
    problem = pr.quadratic_problem(basis_128, phi)
    arch = ar.sinusoid_architecture(basis_128, 1)
    w0 = ar.ParamVector(np.array([0.2, 1.3, 0.1]))
    sched = gr.GrowthSchedule(max_levels=5, solution_tol=1e-4)
    cfg = fl.FlowConfig(
        t_end=400.0, record_every=0.5, stall_window=40, stall_rel_change=1e-9
    )
    gtrace = gr.run_growth_loop(problem, arch, w0, sched, cfg)
    rank_tols = [
        gram_at(
            ar.sinusoid_architecture(basis_128, (e.w_after.size - 1) // 2),
            e.w_after,
        ).rank_tolerance
        for e in gtrace.expansions
    ]
    checks = [
        ("loss <= 1e-4", gtrace.final_loss <= 1e-4),
        ("within <= 4 expansions", len(gtrace.expansions) <= 4),
        ("every expansion drift <= 1e-12",
         all(e.model_drift <= 1e-12 for e in gtrace.expansions)),
        ("every expansion opens directions",
         all(
             e.min_nonzero_eig_after > tol
             for e, tol in zip(gtrace.expansions, rank_tols)
         )),
        ("converged flag", gtrace.converged),
    ]
    report(4, "growth-loop construction", checks, started, budget=120.0)


def test_criterion_5_npbe_desk_solve():
    started = time.time()
    basis = sp.make_space(sp.Domain(1), 24)
    phi = sp.field_from_modes(basis, [(1, 0.6), (2, 0.25)])
    problem = pr.npbe_problem(basis, phi)
    arch = ar.sinusoid_architecture(basis, 2)
    w0 = ar.ParamVector(np.array([0.05, 1.05, 0.5, 2.1, 0.2]))
    cfg = fl.FlowConfig(t_end=80.0, record_every=0.05)
    trace = fl.integrate_parametric(problem, arch, w0, cfg)
    est = an.estimate_lojasiewicz(trace, 0.0)
    checks = [
        ("model error <= 1e-3", trace.model_error[-1] <= 1e-3),
        ("monotone loss", fl.lyapunov_check(trace, 1e-9) == []),
        ("LI fit conclusive", est is not None),
        ("alpha in [0.45, 0.55]", est is not None and 0.45 <= est.alpha_hat <= 0.55),
    ]
    report(5, "PDE desk-scale solve", checks, started, budget=120.0)


def test_criterion_6_critical_point_taxonomy(basis_64):
    started = time.time()
    checks = []

    # constructed spiral orthogonality instance
    arch = ar.spiral_architecture()
    plane = arch.target_basis
    phi = sp.Field(np.array([0.0, -5.0]), plane)
    problem = pr.quadratic_problem(plane, phi)
    obj = fl.ParametricObjective(problem, arch)

    def dloss(w):
        return obj.value_and_grad(np.array([w]))[1][0]

    grid = np.linspace(0.5, 12.0, 23001)
    vals = np.array([dloss(w) for w in grid])
    idx = np.nonzero(np.diff(np.sign(vals)))[0][0]
    lo, hi = grid[idx], grid[idx + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.sign(dloss(mid)) == np.sign(dloss(lo)):
            lo = mid
        else:
            hi = mid
    w_star = ar.ParamVector(np.array([0.5 * (lo + hi)]))
    rep_spiral = an.classify_critical_point(problem, arch, w_star)
    checks.append(("spiral stall is orthogonal_kernel", rep_spiral.case == "orthogonal_kernel"))

    # solved quadratic instance
    phi_q = sp.field_from_modes(basis_64, [(1, 0.5)])
    quad = pr.quadratic_problem(basis_64, phi_q)
    sin_arch = ar.sinusoid_architecture(basis_64, 1)
    rep_solved = an.classify_critical_point(
        quad, sin_arch, ar.ParamVector(np.array([0.0, 1.0, 0.5]))
    )
    checks.append(("solved instance is at_solution", rep_solved.case == "at_solution"))

    # no false at_solution with model error > 1e-3
    no_false = True
    phi_far = sp.field_from_modes(basis_64, [(1, 0.5), (3, 0.3)])
    quad_far = pr.quadratic_problem(basis_64, phi_far)
    trace = fl.integrate_parametric(
        quad_far, sin_arch, ar.ParamVector(np.array([0.0, 1.05, 0.45])),
        fl.FlowConfig(t_end=3000.0, record_every=0.5, stall_window=40),
    )
    err = sp.norm(ar.evaluate(sin_arch, trace.terminal_state) - phi_far)
    rep_far = an.classify_critical_point(quad_far, sin_arch, trace.terminal_state)
    no_false &= err > 1e-3 and rep_far.case != "at_solution"
    rep_origin = an.classify_critical_point(
        pr.quadratic_problem(basis_64, sp.field_from_modes(basis_64, [(2, 0.7)])),
        sin_arch,
        ar.ParamVector(np.zeros(3)),
    )
    no_false &= rep_origin.case != "at_solution"
    checks.append(("no false at_solution on far fixtures", no_false))
    report(6, "critical-point taxonomy", checks, started, budget=30.0)


def test_criterion_7_pruning_invariance(basis_64):
    started = time.time()
    phi = sp.field_from_modes(basis_64, [(1, 0.5), (2, 0.3)])
    problem = pr.quadratic_problem(basis_64, phi)
    rng = np.random.default_rng(6)
    drift_ok = True
    fired = 0
    for _ in range(50):
        pairs = int(rng.integers(2, 4))
        arch = ar.sinusoid_architecture(basis_64, pairs)
        w = np.empty(2 * pairs + 1)
        w[0] = rng.uniform(-1, 1)
        w[1::2] = rng.uniform(0.5, 4.0, size=pairs)
        w[2::2] = rng.uniform(0.3, 1.5, size=pairs)
        w[2 + 2 * int(rng.integers(0, pairs))] = 0.0
        wv = ar.ParamVector(w)
        a2, w2, rep = gr.prune_in_situ(problem, arch, wv)
        if rep.pruned:
            fired += 1
            before = ar.evaluate(arch, wv)
            after = ar.evaluate(a2, w2)
            drift_ok &= sp.norm(after - before) / max(sp.norm(before), 1.0) <= 1e-12

    # never fires at critical points: exact solutions with a dead pair
    never_at_critical = True
    for freq in (3.0, 4.0, 5.0):
        arch = ar.sinusoid_architecture(basis_64, 3)
        w_crit = ar.ParamVector(np.array([0.0, 1.0, 0.5, 2.0, 0.3, freq, 0.0]))
        _, _, rep = gr.prune_in_situ(problem, arch, w_crit)
        never_at_critical &= not rep.pruned
    checks = [
        ("pruning fires on live fixtures", fired >= 45),
        ("model drift <= 1e-12 relative", drift_ok),
        ("refuses at critical points", never_at_critical),
    ]
    report(7, "pruning invariance", checks, started, budget=30.0)


def test_criterion_8_coverage():
    started = time.time()
    rng = np.random.default_rng(0)
    targets = rng.uniform(-100.0, 100.0, size=(100, 2))
    rows = cli.coverage_distances(targets, grid_max=150.0, grid_step=1e-3)
    line_med = float(np.median([r[2] for r in rows]))
    spiral_med = float(np.median([r[3] for r in rows]))
    checks = [
        ("median spiral < median line", spiral_med < line_med),
    ]
    print(f"\n  medians: spiral {spiral_med:.3f} vs line {line_med:.3f}")
    report(8, "plane coverage", checks, started, budget=60.0)


def test_criterion_9_annealed_escape():
    started = time.time()
    problem, arch, shallow, barrier, deep = double_well_fixture()
    w0 = ar.ParamVector(np.array([-1.0]))
    deep_hits = 0
    for seed in range(50):
        cfg = fl.FlowConfig(
            t_end=200.0, record_every=2.0, seed=seed,
            noise_beta=1.0, anneal_c=2.0, record_params=False,
        )
        trace = fl.integrate_annealed(problem, arch, w0, cfg)
        deep_hits += trace.terminal_state.values[0] > barrier

    # beta = 0 degenerates to the deterministic flow
    basis = sp.make_space(sp.Domain(1), 64)
    phi = sp.field_from_modes(basis, [(1, 0.5)])
    p1 = pr.quadratic_problem(basis, phi)
    a1 = ar.affine_architecture([sp.Field(np.eye(64)[1] / np.sqrt(np.pi), basis)])
    w1 = ar.ParamVector(np.array([2.0]))
    cfg0 = fl.FlowConfig(t_end=6.0, record_every=0.05, noise_beta=0.0)
    loss_em = fl.integrate_annealed(p1, a1, w1, cfg0).loss[-1]
    loss_det = fl.integrate_parametric(p1, a1, w1, cfg0).loss[-1]
    checks = [
        (f"deep-basin count {deep_hits}/50 >= 40", deep_hits >= 40),
        ("beta=0 matches deterministic within 1e-4",
         abs(loss_em - loss_det) <= 1e-4),
    ]
    report(9, "annealed escape", checks, started, budget=120.0)


def test_criterion_10_determinism(tmp_path):
    started = time.time()
    run_cfg = """
[problem]
kind = quadratic
resolution = 64
phi = 1:0.5

[architecture]
kind = sinusoid
a = 1
w0 = 0.0, 1.0, 0.1

[flow]
t_end = 40
record_every = 0.1
seed = 11

[analysis]
lojasiewicz = true
rate = true
"""
    grow_cfg = """
[problem]
kind = quadratic
resolution = 64
phi = 0:1.0, 1:0.5

[architecture]
kind = sinusoid
a = 1
w0 = 0.1, 1.2, 0.2

[flow]
t_end = 200
record_every = 0.5
stall_window = 40
stall_rel_change = 1e-9

[growth]
max_levels = 3
solution_tol = 1e-4
"""
    spectrum_cfg = """
[problem]
kind = quadratic
resolution = 256
phi = 1:0.5

[architecture]
kind = sinusoid
a = 2

[spectrum]
count = 5
seed = 3
"""
    coverage_cfg = "[coverage]\ncount = 40\nseed = 5\n"
    fixtures = {
        "flow": (run_cfg, ["run"]),
        "grow": (grow_cfg, ["grow"]),
        "spec": (spectrum_cfg, ["spectrum"]),
        "cov": (coverage_cfg, ["coverage-demo"]),
    }
    identical = True
    compared = 0
    for name, (text, argv) in fixtures.items():
        cfg_path = tmp_path / f"{name}.ini"
        cfg_path.write_text(text)
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            code = cli.main(argv + ["--config", str(cfg_path), "--out", str(out)])
            assert code == 0
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            if f.name.endswith("_manifest.json"):
                continue  # timestamps excluded by contract
            other = outs[1] / f.name
            identical &= other.exists() and f.read_bytes() == other.read_bytes()
            compared += 1

    # annealed flows are bit-identical for a fixed seed
    problem, arch, shallow, _, _ = double_well_fixture()
    w0 = ar.ParamVector(np.array([shallow]))
    cfg = fl.FlowConfig(t_end=5.0, record_every=0.1, seed=9, noise_beta=1.0)
    lines1 = traceio.trace_to_lines(fl.integrate_annealed(problem, arch, w0, cfg))
    lines2 = traceio.trace_to_lines(fl.integrate_annealed(problem, arch, w0, cfg))
    checks = [
        (f"{compared} emitted payloads byte-identical", identical and compared >= 6),
        ("annealed traces bit-identical", lines1 == lines2),
    ]
    report(10, "determinism", checks, started, budget=120.0)
