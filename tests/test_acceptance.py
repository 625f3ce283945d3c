"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines while the suite executes. Criteria share one generated corpus of
200+ graphs across all families; algorithm runs on it are computed once
and reused.
"""
import random
import sys
import time

import pytest

from conftest import complete_bipartite, complete_graph, corpus_specs, random_graph
from localmds import (
    BConfig,
    GeneratorSpec,
    LocalAlgorithm,
    PLANAR,
    algorithm_a_run,
    algorithm_b,
    best_minimum_dominating_set,
    check_uniformity,
    detection_algorithm,
    error_report,
    experiment,
    generate,
    is_planar,
    mds_size,
    run_by_messages,
    run_by_views,
    t_error_set,
    verify_domination,
)
from localmds.nomination import ALGORITHM_A, ALPHA, K_UNIFORM
from reference import exhaustive_mds_size, planar_by_subdivisions

CFG = BConfig(predicate=PLANAR)
T = CFG.error_radius  # 15 with the default linear control


def _report(num: int, ok: bool, description: str, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[ACCEPT] C{num:02d} {verdict} {description}{suffix}", flush=True)
    sys.stdout.flush()


@pytest.fixture(scope="module")
def corpus():
    return [(spec, generate(spec)) for spec in corpus_specs()]


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    """Algorithm A and B results for every corpus graph, plus wall time."""
    runs = []
    start = time.perf_counter()
    for spec, g in corpus:
        entry = {"spec": spec, "g": g, "a": None, "b": None, "error": None}
        try:
            entry["a"] = algorithm_a_run(g)
            entry["b"] = algorithm_b(g, CFG)
        except Exception as exc:  # noqa: BLE001 - failures are the criterion's subject
            entry["error"] = f"{spec.family} {dict(spec.params)} seed={spec.seed}: {exc}"
        runs.append(entry)
    return runs, time.perf_counter() - start


def test_criterion_01_domination_validity(corpus_runs):
    """A and B outputs dominate V(G) on 200+ graphs from all families."""
    runs, elapsed = corpus_runs
    failures = [r["error"] for r in runs if r["error"]]
    families = {r["spec"].family for r in runs}
    for r in runs:
        if r["error"]:
            continue
        g = r["g"]
        if not verify_domination(g, r["a"].output, g.labels):
            failures.append(f"A fails to dominate {r['spec']}")
        if not verify_domination(g, r["b"].output, g.labels):
            failures.append(f"B fails to dominate {r['spec']}")
    ok = not failures and len(runs) >= 200 and len(families) == 8 and elapsed < 300
    _report(
        1,
        ok,
        "domination validity of A and B across the corpus",
        f"{len(runs)} graphs, {len(families)} families, max n="
        f"{max(r['g'].n for r in runs)}, {elapsed:.1f}s" + (f", failures: {failures[:3]}" if failures else ""),
    )
    assert ok


def test_criterion_02_round_accounting(corpus_runs):
    """A reports exactly 5 rounds; B reports exactly T + delta + 2."""
    runs, _ = corpus_runs
    bad = []
    for r in runs:
        if r["error"]:
            bad.append(r["error"])
            continue
        if r["a"].ledger.total != 5:
            bad.append(f"A rounds {r['a'].ledger.total} != 5 on {r['spec']}")
        delta = error_report(r["g"], r["b"].errors.errors).delta
        if r["b"].ledger.total != T + delta + 2:
            bad.append(f"B rounds {r['b'].ledger.total} != {T}+{delta}+2 on {r['spec']}")
    _report(2, not bad, "round accounting: A = 5, B = T + delta + 2", f"T={T}" + (f", {bad[:3]}" if bad else ""))
    assert not bad


def test_criterion_03_uniformity_fuzz():
    """500+ random (planar graph, subset) pairs at k=4, alpha=302."""
    rng = random.Random(20240)
    graph_specs = []
    for seed in range(20):
        graph_specs.append(GeneratorSpec("randomPlanarTriangulation", {"n": 10 + seed % 16}, seed=seed))
    for seed in range(10):
        graph_specs.append(
            GeneratorSpec("randomPlanarTriangulation", {"n": 15 + seed, "deletions": 10 + seed}, seed=seed)
        )
    graph_specs += [
        GeneratorSpec("path", {"n": n}) for n in (5, 9, 13, 17, 21, 25)
    ]
    graph_specs += [GeneratorSpec("cycle", {"n": n}) for n in (6, 11, 16, 21, 25)]
    graph_specs += [
        GeneratorSpec("grid", {"rows": r, "cols": c})
        for r, c in ((2, 5), (3, 5), (4, 5), (5, 5), (3, 8), (2, 12))
    ]
    graph_specs += [GeneratorSpec("depth2Tree", {"alpha": 2})]
    pairs = 0
    violations = []
    for spec in graph_specs:
        g = generate(spec)
        assert g.n <= 25 and is_planar(g)
        output = algorithm_a_run(g).output
        for _ in range(11):
            s = frozenset(v for v in g.labels if rng.random() < rng.choice((0.0, 0.2, 0.5, 0.9)))
            chk = check_uniformity(g, output, s, K_UNIFORM, ALPHA)
            pairs += 1
            if not chk.holds:
                violations.append((spec, sorted(s), chk.selected, chk.optimum))
    ok = pairs >= 500 and not violations
    _report(3, ok, "uniformity fuzz at k=4, alpha=302", f"{pairs} pairs, {len(violations)} violations")
    assert ok


def test_criterion_04_depth2_tree_fixture():
    """Depth-2 tree: optimum is alpha+1; the root alone covers the middle layer."""
    results = []
    for alpha in (2, 3):
        g = generate(GeneratorSpec("depth2Tree", {"alpha": alpha}))
        middle = frozenset(range(1, alpha + 2))
        results.append(mds_size(g, g.labels) == alpha + 1)
        results.append(mds_size(g, middle) == 1)
    ok = all(results)
    _report(4, ok, "depth-2 tree fixture: MDS = alpha+1 and MDS(middle) = 1", "alpha in {2, 3}")
    assert ok


def test_criterion_05_error_free_reduction(corpus_runs):
    """On planar corpus graphs B finds no errors, repairs nothing, equals A."""
    runs, _ = corpus_runs
    bad = []
    checked = 0
    for r in runs:
        if r["error"] or not is_planar(r["g"]):
            continue
        checked += 1
        b = r["b"]
        if b.errors.errors or b.repair or b.output != r["a"].output:
            bad.append(str(r["spec"]))
    ok = checked >= 100 and not bad
    _report(5, ok, "planar inputs reduce B to A exactly (X and repair empty)", f"{checked} planar graphs")
    assert ok


def test_criterion_06_error_set_monotonicity():
    """Error sets only grow with the detection radius: X_5 <= X_10 <= X_15."""
    bad = []
    checked = 0
    for params, seed in (
        ({"n": 60, "gadgets": 1, "spacing": 10}, 1),
        ({"n": 80, "gadgets": 2, "spacing": 40}, 3),
        ({"n": 100, "gadgets": 3, "spacing": 35}, 5),
        ({"n": 90, "gadgets": 2, "gadget": "projectiveCirculant", "spacing": 30}, 4),
        ({"n": 70, "gadgets": 2, "spacing": 20}, 9),
    ):
        g = generate(GeneratorSpec("gadgetGraft", params, seed=seed))
        x5 = t_error_set(g, PLANAR, 5)
        x10 = t_error_set(g, PLANAR, 10)
        x15 = t_error_set(g, PLANAR, 15)
        checked += 1
        if not (x5 <= x10 <= x15):
            bad.append(str(params))
        if not x5:
            bad.append(f"empty error set at radius 5 for {params}")
    ok = not bad and checked == 5
    _report(6, ok, "error-set monotonicity in the detection radius", "T in {5, 10, 15}")
    assert ok


def test_criterion_07_delta_bound(corpus_runs):
    """measureDelta < genus_bound * (2T + 5) on known-genus families."""
    runs, _ = corpus_runs
    bad = []
    checked = 0
    worst = 0.0
    for r in runs:
        spec = r["spec"]
        if r["error"]:
            continue
        if spec.family in ("toroidalGrid", "projectiveCirculant"):
            genus_bound = 1
        elif spec.family == "gadgetGraft":
            genus_bound = spec.genus_upper_bound
        else:
            continue
        checked += 1
        delta = error_report(r["g"], r["b"].errors.errors).delta
        limit = genus_bound * (2 * T + 5)
        worst = max(worst, delta / limit)
        if not delta < limit:
            bad.append(f"{spec}: delta {delta} >= {limit}")
    ok = not bad and checked >= 15
    _report(
        7, ok, "delta stays below genus_bound * (2T + 5)", f"{checked} graphs, worst delta/limit {worst:.2f}"
    )
    assert ok


def test_criterion_08_oracle_soundness():
    """mds_size matches power-set exhaustion; the best-set fixtures hold."""
    rng = random.Random(9091)
    mismatch = []
    for i in range(100):
        n = rng.randrange(1, 13)
        g = random_graph(n, rng.uniform(0.1, 0.6), rng)
        target = frozenset(v for v in g.labels if rng.random() < 0.85)
        if mds_size(g, target) != exhaustive_mds_size(g, target):
            mismatch.append(i)
    from localmds import LabeledGraph

    p4 = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = LabeledGraph.from_edges(6, [(0, i) for i in range(1, 6)])
    fixtures_ok = (
        best_minimum_dominating_set(p4, p4.labels) == {1, 2}
        and best_minimum_dominating_set(star, star.labels) == {0}
    )
    ok = not mismatch and fixtures_ok
    _report(8, ok, "oracle equals power-set exhaustion on 100 graphs (n <= 12)", f"best fixtures ok: {fixtures_ok}")
    assert ok


def test_criterion_09_executor_equivalence(corpus):
    """View-based and message-based executors agree on every registered pair."""
    registered = [
        ALGORITHM_A,
        detection_algorithm(PLANAR, 5),
        LocalAlgorithm("local-min", 1, lambda view: view.center == min(view.vertices)),
    ]
    picked = []
    per_family: dict[str, int] = {}
    for spec, g in corpus:
        if g.n > 70:
            continue
        if per_family.get(spec.family, 0) >= 6:
            continue
        per_family[spec.family] = per_family.get(spec.family, 0) + 1
        picked.append((spec, g))
    bad = []
    for spec, g in picked:
        for alg in registered:
            by_views = run_by_views(g, alg)
            by_messages, ledger = run_by_messages(g, alg)
            if by_views != by_messages or ledger.view_collection != alg.radius:
                bad.append(f"{spec} with {alg.name}")
    ok = not bad and len(picked) >= 30
    _report(9, ok, "run-by-views equals run-by-messages", f"{len(picked)} graphs x {len(registered)} algorithms")
    assert ok


def test_criterion_10_planarity_tester(corpus):
    """Agreement with the subdivision reference and the named fixtures."""
    rng = random.Random(777)
    disagreements = []
    checked = 0
    for spec, g in corpus:
        if g.n <= 9:
            checked += 1
            if is_planar(g) != planar_by_subdivisions(g):
                disagreements.append(str(spec))
    for _ in range(60):
        g = random_graph(rng.randrange(1, 10), rng.uniform(0.2, 0.8), rng)
        checked += 1
        if is_planar(g) != planar_by_subdivisions(g):
            disagreements.append("random")
    fixtures_ok = (
        not is_planar(complete_graph(5))
        and not is_planar(complete_bipartite(3, 3))
        and not is_planar(generate(GeneratorSpec("projectiveCirculant", {"g": 1})))
    )
    planar_families_ok = all(
        is_planar(g)
        for spec, g in corpus
        if spec.family in ("path", "cycle", "grid", "randomPlanarTriangulation", "depth2Tree")
    )
    ok = not disagreements and fixtures_ok and planar_families_ok and checked >= 60
    _report(
        10,
        ok,
        "planarity tester vs subdivision reference and fixtures",
        f"{checked} small graphs compared",
    )
    assert ok


def test_criterion_11_realized_ratio_report():
    """The planar suite emits max/mean realized ratio for A; max <= 302."""
    suite = {
        "oracle_max_n": 25,
        "graphs": [
            {"family": "path", "params": {"n": n}} for n in (4, 9, 14, 19, 25)
        ]
        + [{"family": "cycle", "params": {"n": n}} for n in (5, 12, 21)]
        + [
            {"family": "grid", "params": {"rows": r, "cols": c}}
            for r, c in ((2, 4), (3, 5), (4, 6), (5, 5))
        ]
        + [
            {"family": "randomPlanarTriangulation", "params": {"n": 10 + 3 * s}, "seed": s}
            for s in range(5)
        ]
        + [{"family": "depth2Tree", "params": {"alpha": 2}}],
        "algorithms": [{"alg": "A"}],
    }
    reports, aggregates = experiment(suite)
    agg = aggregates["A"]
    ok = (
        all(r.status == "ok" for r in reports)
        and agg["max_ratio"] is not None
        and agg["max_ratio"] <= ALPHA
    )
    _report(
        11,
        ok,
        "planar-suite realized ratio within the guarantee",
        f"max {agg['max_ratio']:.3f}, mean {agg['mean_ratio']:.3f} (bound {ALPHA})",
    )
    assert ok
