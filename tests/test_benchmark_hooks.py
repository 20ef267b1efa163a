"""The benchmark's tracer wraps package functions by name, and records a
name it cannot find as absent instead of failing.  This guard fails fast
when a package change would leave one of those names behind, or would
change how often the protocol stages whose results the hooks add up are
called."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_package_callable():
    spans = _spans()
    missing = [
        f"{module}.{name}"
        for module, name, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), name, None))
    ]
    assert spans.TARGETS and not missing


def test_run_optc_takes_the_population_first():
    # the tracer's run_optc hook reads the population as argument 0
    from rfid_sampler.protocol import run_optc

    assert next(iter(inspect.signature(run_optc).parameters)) == "population"


def test_generate_population_feeds_the_population_hook():
    # the tracer's generate_population hook sums n over argument 0, read
    # by position or as category_sizes, into population.tags_generated
    from rfid_sampler import population

    assert next(iter(inspect.signature(population.generate_population).parameters)) == (
        "category_sizes"
    )
    spans = _spans()
    sizes = [(30, 4), (1, 1), (200, 25)]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        population.generate_population(sizes, rng_seed=5)
        population.generate_population(category_sizes=sizes, rng_seed=5)
    finally:
        tracer.unwrap_all()
    assert tracer.hook_errors == []
    assert tracer.count["population.tags_generated"] == 2 * sum(n for n, _ in sizes)


def test_category_tags_ids_match_the_population_halves():
    # spans.check_optc_outcomes checks sampled IDs against
    # {t.id for t in category_tags(...)}; it must be the category's IDs
    from rfid_sampler.population import category_tags, generate_population, halves_to_ids

    pop = generate_population([(7, 2), (40, 5), (1, 1)], rng_seed=6)
    for spec in pop.categories:
        ids = {t.id for t in category_tags(pop, spec.k)}
        assert ids == set(halves_to_ids(*pop.halves(spec.k)))
        assert len(ids) == spec.n


def _record(monkeypatch, module_name, names):
    """Replace the named functions of rfid_sampler.<module_name> in every
    rfid_sampler module that holds them, as the tracer does, and return the
    list their calls are appended to as (name, args, kwargs)."""
    source = importlib.import_module(f"rfid_sampler.{module_name}")
    calls = []
    for name in names:
        orig = getattr(source, name)

        def record(*args, _name=name, _orig=orig, **kwargs):
            calls.append((_name, args, kwargs))
            return _orig(*args, **kwargs)

        for module in list(sys.modules.values()):
            mname = getattr(module, "__name__", "")
            if mname.split(".")[0] == "rfid_sampler" and getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, record)
    return calls


# verify-rounds' airtime_ratio and the sim workloads' per-component bits are
# summed from these calls: one coarse and one refinement round per category,
# with c read as argument 1 of optc2_round.

def test_optc2_round_takes_c_second():
    from rfid_sampler.protocol import optc2_round

    assert list(inspect.signature(optc2_round).parameters)[1] == "c"


def test_sample_once_calls_each_stage_once(monkeypatch):
    from rfid_sampler.verify import sample_once

    calls = _record(monkeypatch, "protocol", ("optc1_round", "optc2_round"))
    rng = np.random.default_rng(8)
    for n, c in [(2, 1), (60, 7), (400, 40)]:
        calls.clear()
        sample_once(n, c, rng)
        assert [name for name, _, _ in calls] == ["optc1_round", "optc2_round"]
        _, args, kwargs = calls[1]
        assert _spans()._arg(args, kwargs, 1, "c") == c


def test_run_optc_calls_each_stage_once_per_category(monkeypatch):
    from rfid_sampler.population import generate_population
    from rfid_sampler.protocol import run_optc

    calls = _record(monkeypatch, "protocol", ("optc1_round", "optc2_round"))
    pop = generate_population([(30, 4), (1, 1), (200, 25)], rng_seed=5)
    run_optc(pop, np.random.default_rng(2))
    K = len(pop.categories)
    assert [name for name, _, _ in calls] == ["optc1_round"] * K + ["optc2_round"] * K
    arg = _spans()._arg
    assert [arg(a, kw, 1, "c") for _, a, kw in calls[K:]] == [s.c for s in pop.categories]


# The protocol.bits.* keys are added up from each stage's own result: the
# coarse header from optc1_round's bits_sent, the frame and stop bits from
# optc2_round's, and the seed tests from find_suitable_seed's stats (index 1).

def test_stage_results_feed_the_protocol_hooks():
    from rfid_sampler import hashing, protocol
    from rfid_sampler.population import generate_population
    from rfid_sampler.protocol import optc1_header_bits

    spans = _spans()
    pop = generate_population([(300, 20), (40, 6), (1, 1)], rng_seed=7)
    for spec in pop.categories:
        hi, lo = pop.halves(spec.k)
        _, stats = hashing.find_suitable_seed(hi, lo, spec.c, np.random.default_rng(5))
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            first = protocol.optc1_round(hi, lo, spec.c, np.random.default_rng(5))
            out = protocol.optc2_round((hi[first.positions], lo[first.positions]), spec.c)
        finally:
            tracer.unwrap_all()
        assert tracer.absent == [] and tracer.hook_errors == []
        assert tracer.count["hashing.seed_tests"] == stats.tests
        assert tracer.count["protocol.bits.coarse_header"] == optc1_header_bits(spec.n, spec.c)
        assert tracer.count["protocol.bits.frame"] == out.payload_bits > 0
        assert tracer.count["protocol.bits.refine_header"] == 0


def test_protocol_hooks_add_up_to_the_ledger():
    from rfid_sampler import protocol
    from rfid_sampler.population import generate_population

    spans = _spans()
    pop = generate_population([(60, 5), (40, 8), (25, 3)], rng_seed=21)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        outcomes, coarse = protocol.run_optc(pop, np.random.default_rng(3))
    finally:
        tracer.unwrap_all()
    bits = ("coarse_header", "refine_header", "frame", "stop")
    assert tracer.hook_errors == []
    assert sum(tracer.count[f"protocol.bits.{b}"] for b in bits) == sum(
        r.bits_sent for r in coarse + outcomes)
    assert tracer.count["protocol.bits.frame"] == sum(o.payload_bits for o in outcomes)


# The sim workloads' selgen.* keys: the tracer counts one run_impl_category
# call per category and reads its result's commands, coarse_redraws and
# refine_redraws; it times best_threshold and selgen_commands inside it.

def test_run_optc_impl_calls_run_impl_category_once_per_category(monkeypatch):
    from rfid_sampler.population import generate_population
    from rfid_sampler.selgen import run_optc_impl

    calls = _record(monkeypatch, "selgen", ("run_impl_category",))
    pop = generate_population([(20, 5), (1, 1), (60, 9)], rng_seed=5)
    results = run_optc_impl(pop, np.random.default_rng(2))
    assert [name for name, _, _ in calls] == ["run_impl_category"] * len(pop.categories)
    assert len(results) == len(pop.categories)


def test_run_impl_category_calls_each_timed_step(monkeypatch):
    from rfid_sampler.population import generate_population
    from rfid_sampler.selgen import run_impl_category

    calls = _record(monkeypatch, "selgen", ("best_threshold", "selgen_commands"))
    pop = generate_population([(1, 1), (20, 5), (200, 25)], rng_seed=3)
    rng = np.random.default_rng(4)
    stages_seen = set()
    for spec in pop.categories:
        calls.clear()
        res = run_impl_category(*pop.halves(spec.k), spec.c, rng)
        # one threshold and one command set per stage that sends; stage two
        # sends nothing when stage one kept exactly c tags
        stages = 1 if len(res.pool[0]) == spec.c else 2
        assert sorted(name for name, _, _ in calls) == (
            ["best_threshold"] * stages + ["selgen_commands"] * stages
        )
        stages_seen.add(stages)
    assert stages_seen == {1, 2}


def test_run_impl_category_result_feeds_the_selgen_hook():
    from rfid_sampler.population import generate_population
    from rfid_sampler.selgen import run_impl_category

    spans = _spans()
    tracer = spans.Tracer()
    pop = generate_population([(30, 6)], rng_seed=8)
    result = run_impl_category(*pop.halves(1), 6, np.random.default_rng(1))
    spans._on_run_impl_category(tracer, (), {}, result)
    assert tracer.count["selgen.categories"] == 1
    assert tracer.count["selgen.commands"] == len(result.commands) >= 2
    draws = result.coarse_redraws + result.refine_redraws
    assert tracer.count["selgen.window_draws"] == draws >= 2


# The traced run checks every run_optc result against the population:
# spans.check_optc_outcomes reads each outcome's Ready IDs, which are built
# from its pool halves, and requires them to be the category's tags.

def test_check_optc_outcomes_catches_ready_tags_of_another_category():
    from rfid_sampler import protocol
    from rfid_sampler.population import generate_population

    spans = _spans()
    pop = generate_population([(40, 6), (40, 6), (25, 3)], rng_seed=4)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        protocol.run_optc(pop, np.random.default_rng(9))
        assert spans.check_optc_outcomes(tracer) == 0
        outcomes, _ = protocol.run_optc(pop, np.random.default_rng(9))
    finally:
        tracer.unwrap_all()
    # the first category's outcome now holds the second category's sample:
    # six distinct tags with orders 1..6, but not tags of category 1
    first, second = outcomes[0], outcomes[1]
    first.pool, first.positions = second.pool, second.positions
    assert spans.check_optc_outcomes(tracer) == 1


def test_csv_columns_are_the_list_the_benchmark_reads_back(tmp_path):
    # the benchmark compares the header csv.reader returns, a list, with
    # harness.CSV_COLUMNS by !=, so a tuple would fail every simulate run
    import csv
    from dataclasses import fields

    from rfid_sampler import harness

    rows = harness.run_points([harness.ScenarioConfig("p", ns=[20], cs=[3], trials=1)])
    out = tmp_path / "rows.csv"
    harness.write_results(rows, str(out))
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert isinstance(harness.CSV_COLUMNS, list)
    assert header == harness.CSV_COLUMNS
    assert harness.CSV_COLUMNS == [f.name for f in fields(harness.ResultRow)] + ["ratio"]
