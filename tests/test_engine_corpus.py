"""The engine and the pipeline reproduce their frozen differential corpora bit for bit.

`engine_corpus.json` holds the detectors' outputs on about 2 000 seeded
series and `pipeline_corpus.json` the pipeline's result files on 400 seeded
pairs (see `engine_corpus.py`); regenerate them with
`python tests/engine_corpus.py --freeze` only when a change of the outputs is
intended.
"""

import engine_corpus


def test_engine_reproduces_the_frozen_corpus():
    frozen = engine_corpus.load()
    cases = engine_corpus.all_cases()
    assert len(frozen) == len(cases)
    for record, (meta, values) in zip(frozen, cases):
        assert {k: record[k] for k in meta} == meta, "the corpus inputs changed"
        diff = engine_corpus.first_difference(record, engine_corpus.run_case(meta, values))
        assert diff is None, f"{engine_corpus.describe(meta)}: {diff}"


def test_pipeline_reproduces_the_frozen_corpus():
    frozen = engine_corpus.load(engine_corpus.PIPELINE_CORPUS)
    pairs = engine_corpus.all_pairs()
    assert len(frozen) == len(pairs)
    for record, (meta, x, y) in zip(frozen, pairs):
        assert {k: record[k] for k in meta} == meta, "the corpus inputs changed"
        diff = engine_corpus.pipeline_difference(record, engine_corpus.run_pair_case(meta, x, y))
        assert diff is None, f"{engine_corpus.describe(meta)}: {diff}"


def test_a_refreeze_report_lists_moved_runs_and_not_bits_alone():
    frozen = {
        "mean": {"cps": [5], "crc": "a"},
        "variance": {"cps": [9], "crc": "b"},
        "stream": {"k": 20, "mean": {"confirmed": [], "crc": "c"}, "variance": {"error": "E"}},
    }
    now = {
        "mean": {"cps": [5], "crc": "z"},
        "variance": {"cps": [-9], "crc": "b"},
        "stream": {"k": 20, "mean": {"confirmed": [30], "crc": "c"}, "variance": {"error": "E"}},
    }
    assert engine_corpus.moved(frozen, now) == [
        "variance: change-points [9], now change-points [-9]",
        "mean monitor: change-points [], now change-points [30]",
    ]
    assert engine_corpus.moved(frozen, {**frozen, "mean": {"cps": [5], "crc": "z"}}) == []
    pair = {mode: {"cps": [], "crc": "a"} for mode in engine_corpus.PIPELINE_MODES}
    failed = {**pair, "run_srsd": {"error": "DataError: x"}}
    assert engine_corpus.moved(pair, failed) == ["run_srsd: change-points [], now 'DataError: x'"]
