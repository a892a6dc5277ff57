"""A tiny run of every workload through the same code path as run.py."""

import pytest

import run
from harness import END_TO_END, PER_LAYER
from workloads import Sizes

TINY = Sizes(users=3, triples_per_user=40, setup_triples_per_user=40, batch_size=16,
             toy_epochs=2, setup_epochs=2, warmup_batches=2, paper_triples=8,
             paper_batch=8, paper_epochs=2, paper_words=300,
             paper_overrides=(("word_embed_dim", 16), ("user_embed_dim", 8),
                              ("encoder_hidden", 16), ("decoder_hidden", 16),
                              ("z_dim", 8), ("bow_hidden", 16)),
             eval_items=6, eval_warmup_items=3, eval_rounds=2, serve_warmup=5,
             beam=3, distractors=3)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_runs_and_checks_its_outputs(name):
    checks, metrics, info = run.measure(name, seed=3, seconds=0.2, trace=0, sizes=TINY)
    assert checks.failed == 0, checks.messages
    assert checks.attempted >= 3
    assert {n: u for n, (_v, u) in metrics.items()} == {m[0]: m[1] for m in END_TO_END}
    assert all(v > 0 for v, _u in metrics.values())
    assert info["setups"][0] >= run.SETUPS


def test_traced_run_reports_every_layer_metric_and_accounts_for_the_root():
    checks, metrics, _info = run.measure("serve", seed=3, seconds=0.2, trace=1, sizes=TINY)
    assert checks.failed == 0, checks.messages
    assert {n: u for n, (_v, u) in metrics.items()} == {m[0]: m[1] for m in PER_LAYER}
    v = {n: x for n, (x, _u) in metrics.items()}
    assert v["trace.root_self_ms"] + v["trace.root_children_ms"] == pytest.approx(
        v["trace.root_ms"], rel=1e-6)
    assert v["generation.generate.calls"] > 0 and v["autodiff.ops_per_batch"] > 0
    assert v["generation.decoder_rows_per_request"] > 0
    assert v["model.decode_step.beam_fwd_ms"] > 0
