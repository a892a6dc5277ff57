import json
import os
import re
from statistics import median

import pytest

from harness import (END_TO_END, PER_LAYER, REFERENCE_S, Checks, Pace, latency_summary,
                     tail_percentile)
from workloads import Timed

from conftest import BENCH

NAME_RE = re.compile(r"[A-Za-z0-9_.-]{1,64}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (10 ** 6, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_latency_summary_interpolates_the_tail():
    assert latency_summary([5.0, 1.0, 3.0, 2.0]) == (2.5, None, None, 4)
    p50, p, tail, n = latency_summary([float(i) for i in range(101)])
    assert (p50, p, n) == (50.0, 90.0, 101) and tail == pytest.approx(90.0)


def test_op_ms_p50_weighs_each_kind_of_operation_alike():
    # pooled, the median would fall between the two kinds (5.5)
    timed = Timed(ops=7, busy_s=1.0,
                  op_ms={"fast": [1.0, 2.0, 3.0], "slow": [9.0, 10.0, 11.0, 12.0], "none": []})
    assert timed.op_ms_p50() == pytest.approx((2.0 + 10.5) / 2)


def test_checks_count_failures_against_attempts():
    c = Checks()
    assert c.record(True, "fine")
    assert not c.record(False, "broken")
    assert (c.attempted, c.failed, c.messages) == (2, 1, ["broken"])


def test_pace_clock_excludes_the_reference_kernel():
    pace = Pace(every_s=0.0)
    before = pace.clock()
    for _ in range(5):
        pace.tick()
    assert len(pace.samples) == 5 and pace.excluded > 0
    assert pace.clock() - before < pace.excluded
    assert pace.factor() == pytest.approx(median(pace.samples) / REFERENCE_S)


def test_idle_pace_never_runs_the_kernel():
    pace = Pace(None)
    pace.tick()
    assert pace.samples == [] and pace.excluded == 0.0 and pace.factor() == 1.0


def test_metric_names_and_units_are_well_formed():
    names = [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better, *bound in END_TO_END + PER_LAYER:
        assert NAME_RE.fullmatch(name) and name[0].isalnum(), name
        assert UNIT_RE.fullmatch(unit), (name, unit)
        assert better in ("lower", "higher")
        assert all(0 < b <= 0.25 for b in bound)
    assert "setup_s" in names and len(PER_LAYER) <= 128


def test_benchmark_json_declares_the_same_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == \
        ["train_toy", "train_paper", "serve", "evaluate"]
