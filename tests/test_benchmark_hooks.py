"""The benchmark's tracer wraps package functions by name, and records a
name it cannot find as absent instead of failing.  This guard fails fast
when a package change would leave one of those names behind."""

import importlib
import importlib.util
import inspect
from pathlib import Path

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


def test_category_tags_ids_match_the_population_halves():
    # spans.check_optc_outcomes checks sampled IDs against
    # {t.id for t in category_tags(...)}; it must be the category's IDs
    from rfid_sampler.population import category_tags, generate_population, halves_to_ids

    pop = generate_population([(7, 2), (40, 5), (1, 1)], rng_seed=6)
    for spec in pop.categories:
        ids = {t.id for t in category_tags(pop, spec.k)}
        assert ids == set(halves_to_ids(*pop.halves(spec.k)))
        assert len(ids) == spec.n
