"""Golden outputs: a fixed config and seed give byte-identical results.

The digests were taken from the implementation that built one Python object
per tag; any change to the representation underneath must reproduce them.
`VERIFY_ALL_FAST_SHA256` pins the stdout of `rfid-sampler verify all --fast`.
A change that alters the protocol's behaviour on purpose updates them and
says why.
"""

import hashlib
import json

import numpy as np

from rfid_sampler import generate_population
from rfid_sampler.baselines import run_random_select
from rfid_sampler.cli import main
from rfid_sampler.harness import run_scenarios
from rfid_sampler.population import halves_to_ids
from rfid_sampler.protocol import run_optc
from rfid_sampler.selgen import run_optc_impl
from rfid_sampler.verify import sample_once

SCENARIO = """\
[golden-mixed]
K = 4
n = 40,60
c = 5
trials = 3
seed = 11
protocols = optc, optc-impl, random-select

[golden-wide]
K = 3
n = 300
c = 20,30,7
trials = 2
seed = 5
protocols = optc, optc-impl, random-select
"""

SIMULATE_CSV_SHA256 = "bab3acd81449a39b6ee7ec40bf0f62652d1caaf525ee793b93e7343f43ef87f4"
SIMULATE_JSON_SHA256 = "e8670ddf0315ee9e8a6683d29b25c7f89a2f21048cd91ae7d4f43470c1973701"
VERIFY_ALL_FAST_SHA256 = "35f1019d07cb17b8de5461ea1cf533c686a80e5cda0c1195cf6c6a7bc11ce38b"
SAMPLE_ONCE_SHA256 = "1404132068085e02c7739be059f1a53b73909a8038f179502fce637ae7eb3571"
# one digest per part, so a failure names the part that moved
SAMPLED_IDS_SHA256 = {
    "ids": "bec2565d43f3de2046facaa41d0c85be900c11731b9679d0fbc3c52814026f3a",
    "optc": "811160a06b594aefdce3a0d978cc0eb10ee5e5316e654bf873bb5bd94153539f",
    "optc-impl": "fd38aa7c6433adeddf6722b87024b0a94a0e61ec403430ce77596829fb9e29f9",
    # random-select picks rows, so its IDs follow each category's row order
    # (draw order); the other parts depend only on the categories' ID sets
    "random-select": "89cf9135f0b09e53131a533b3adf73b7e817a360e93676c771303e66fd9ee763",
}

# (n, c) rounds for the sample_once sequence: n = c, n = 1, tiny, and wide
ROUNDS = [(1, 1), (2, 1), (6, 2), (6, 6), (40, 7), (100, 10), (257, 50), (1000, 100), (999, 1)]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_output_digests(tmp_path):
    config = tmp_path / "golden.ini"
    config.write_text(SCENARIO)
    out = tmp_path / "golden.csv"
    run_scenarios(str(config), str(out))
    assert _sha256(out) == SIMULATE_CSV_SHA256
    assert _sha256(tmp_path / "golden.csv.json") == SIMULATE_JSON_SHA256


def test_verify_all_fast_output_digest(capsys):
    # the stdout of `rfid-sampler verify all --fast`: every check's line
    assert main(["verify", "all", "--fast"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_ALL_FAST_SHA256


def test_sample_once_sequence_digest():
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    outputs = [sample_once(n, c, rng) for n, c in ROUNDS]
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    assert digest == SAMPLE_ONCE_SHA256


def test_population_and_sampled_ids_digest():
    """The CSV records bits only; this pins the IDs themselves: every
    category's set of IDs (sorted), and the tags each protocol samples."""
    pop = generate_population([(40, 5), (60, 8), (300, 20), (1, 1)], rng_seed=77)
    optc, _ = run_optc(pop, np.random.default_rng(1))
    impl = run_optc_impl(pop, np.random.default_rng(2))
    baseline = run_random_select(pop, np.random.default_rng(3))
    record = {
        "ids": [sorted(halves_to_ids(s.hi, s.lo)) for s in pop.categories],
        "optc": [out.ready for out in optc],
        "optc-impl": [res.ready for res in impl],
        "random-select": [rep.ready for rep in baseline],
    }
    digests = {
        part: hashlib.sha256(json.dumps(value).encode()).hexdigest()
        for part, value in record.items()
    }
    assert digests == SAMPLED_IDS_SHA256
