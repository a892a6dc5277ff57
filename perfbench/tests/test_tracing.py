import pytest

import pagen
from pagen import model as M
from pagen import trainer as T

import tracing


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_children():
    spans = [
        _span("run", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("a", 5.0, 6.0, 0),
    ]
    agg = tracing.busy_and_self(spans)
    assert agg["run"] == (1, 10.0, 6.0)
    assert agg["a"] == (2, 4.0, 3.0)
    assert agg["b"] == (1, 1.0, 1.0)
    assert tracing.root_accounting(spans, agg) == (10.0, 6.0, 4.0)


def test_self_time_merges_overlapping_and_clips_outlying_children():
    spans = [
        _span("p", 0.0, 10.0, -1),
        _span("c", 1.0, 5.0, 0),
        _span("c", 4.0, 6.0, 0),
        _span("c", 9.0, 12.0, 0),
    ]
    assert tracing.busy_and_self(spans)["p"] == (1, 10.0, 10.0 - 5.0 - 1.0)


def test_root_accounting_needs_exactly_one_root():
    with pytest.raises(ValueError):
        tracing.root_accounting([], {})


def test_install_wraps_call_sites_and_uninstall_restores_them():
    before = (T.total_loss, T.backward, M.decode_logits, pagen.autodiff.matmul,
              pagen.corpus.Vocabulary.__dict__["build"])
    tracer = tracing.Tracer()
    with tracer.installed(pagen):
        assert T.total_loss is not before[0]
        pagen.corpus.Vocabulary.build([])
        pagen.autodiff.matmul(pagen.autodiff.constant([[1.0]]),
                              pagen.autodiff.constant([[2.0]]))
    after = (T.total_loss, T.backward, M.decode_logits, pagen.autodiff.matmul,
             pagen.corpus.Vocabulary.__dict__["build"])
    assert after == before
    assert [s[0] for s in tracer.spans] == ["corpus.Vocabulary.build"]
    assert tracer.op_calls["matmul"] == 1 and tracer.op_calls["constant"] == 2


def test_op_scan_finds_every_graph_op():
    from harness import AUTODIFF_OPS
    assert set(AUTODIFF_OPS) <= set(tracing.autodiff_ops(pagen.autodiff))
    assert "backward" not in tracing.autodiff_ops(pagen.autodiff)
