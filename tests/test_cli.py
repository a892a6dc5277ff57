"""End-to-end tests for the command-line interface."""

import os
import subprocess
import sys

import numpy as np
import pytest

from pagen import autodiff as ad
from pagen import cli
from pagen import corpus as C
from pagen import evaluate as E
from pagen import generation as G
from pagen import metrics as MX
from pagen import model as M
from pagen import selfcheck
from pagen.autodiff import Tensor

TOY_CONFIG = """\
variant=CVAE
word_embed_dim=8
user_embed_dim=6
encoder_hidden=8
decoder_hidden=12
z_dim=4
bow_hidden=10
anneal_batches=50
batch_size=32
epochs=1
max_batches=6
lr=0.002
train_ratio=0.9
max_vocab=500
"""


@pytest.fixture
def workdir(tmp_path):
    data = tmp_path / "corpus.tsv"
    C.write_corpus(data, C.generate_synthetic(3, 40, 0.9, seed=2))
    config = tmp_path / "toy.cfg"
    config.write_text(TOY_CONFIG, encoding="utf-8")
    return tmp_path, data, config


def _trained(workdir, seed=0, variant=None):
    tmp_path, data, config = workdir
    out = tmp_path / "run"
    argv = ["train", "--config", str(config), "--data", str(data),
            "--out", str(out), "--seed", str(seed)]
    if variant:
        argv += ["--variant", variant]
    assert cli.main(argv) == 0
    return out


def test_file_hash_is_blake2b_64(tmp_path):
    # BLAKE2b with an 8-byte digest: 16 hex digits in the manifest
    path = tmp_path / "blob"
    for data, expect in ((b"", "e4a6a0577479b2b4"), (b"a", "40f89e395b66422f")):
        path.write_bytes(data)
        assert cli.file_hash(path) == expect


def test_gen_corpus(tmp_path, capsys):
    out = tmp_path / "c.tsv"
    assert cli.main(["gen-corpus", "--out", str(out), "--users", "3",
                     "--triples-per-user", "5", "--seed", "1"]) == 0
    triples = C.read_triples(out)
    assert len(triples) == 15
    assert "wrote 15 triples" in capsys.readouterr().out


def test_gen_corpus_rejects_no_triples(tmp_path, capsys):
    out = tmp_path / "c.tsv"
    assert cli.main(["gen-corpus", "--out", str(out), "--triples-per-user", "0"]) == 1
    assert "--triples-per-user: triples_per_user must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, expected", [("--users", "1", ">= 2"),
                                                   ("--strength", "0.5", "in (0.5, 1)"),
                                                   ("--strength", "1.0", "in (0.5, 1)"),
                                                   ("--strength", "nan", "in (0.5, 1)")])
def test_gen_corpus_names_the_flag_out_of_range(tmp_path, capsys, flag, value, expected):
    out = tmp_path / "c.tsv"
    assert cli.main(["gen-corpus", "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert f"{flag}: " in err and f"must be {expected}, got " in err
    assert not out.exists()


def test_train_outputs(workdir):
    out = _trained(workdir)
    for name in ("model.ckpt", "train.tsv", "test.tsv", "vocab.txt", "users.txt",
                 "history.csv", "manifest.txt"):
        assert (out / name).exists(), name
    manifest = dict(line.split("=", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    assert manifest["command"] == "train"
    assert manifest["checkpoint_hash"] == cli.file_hash(out / "model.ckpt")


def test_train_keeps_reserved_spellings_reserved(workdir):
    """A corpus whose text holds reserved spellings trains, and vocab.txt
    lists each reserved name once, at its reserved index."""
    _, data, _ = workdir
    lines = data.read_text(encoding="utf-8").splitlines()
    data.write_text("".join(f"{u}\t{q} <eos>\t<unk> {r} <pad>\n"
                            for u, q, r in (line.split("\t") for line in lines)),
                    encoding="utf-8")
    names = (_trained(workdir) / "vocab.txt").read_text(encoding="utf-8").splitlines()
    assert names[:len(C.RESERVED)] == C.RESERVED
    assert all(names.count(name) == 1 for name in C.RESERVED)


def test_tables_must_fit_the_checkpoint(workdir, capsys):
    """A vocab.txt or users.txt whose size differs from the checkpoint's
    embedding (a table from another run) fails naming both files."""
    tmp_path, _, _ = workdir
    out = _trained(workdir)
    model = str(out / "model.ckpt")
    for flag, name, size in (("--vocab", "vocab.txt", "vocab_size"),
                             ("--users-file", "users.txt", "num_users")):
        other = tmp_path / f"other_{name}"
        other.write_text((out / name).read_text(encoding="utf-8") + "extra\n",
                         encoding="utf-8")
        assert cli.main(["generate", "--model", model, flag, str(other), "--user", "user0",
                         "--query", "topic0 q1"]) == 1
        n = len((out / name).read_text(encoding="utf-8").splitlines())
        assert f"{other}: {n + 1} names, but {model} has {size}={n}" in capsys.readouterr().err


@pytest.mark.parametrize("every", [None, 1])
def test_train_log_every(workdir, capsys, every):
    tmp_path, data, config = workdir
    argv = ["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "r")]
    assert cli.main(argv + ([] if every is None else ["--log-every", str(every)])) == 0
    out = capsys.readouterr().out.splitlines()
    batches = int(out[-1].split("(")[1].split()[0])  # "checkpoint: ... (N batches)"
    logged = [line for line in out if line.startswith("batch ")]
    assert len(logged) == (0 if every is None else batches) and batches > 1


def test_train_rejects_negative_log_every(workdir, capsys):
    tmp_path, data, config = workdir
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--config", str(config), "--data", str(data),
                  "--out", str(tmp_path / "r"), "--log-every", "-1"])
    assert e.value.code == 2
    assert "argument --log-every: expected an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_train_missing_data_exits_2(workdir, capsys):
    tmp_path, _, config = workdir
    code = cli.main(["train", "--config", str(config), "--data",
                     str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


def test_train_config_that_is_a_directory_exits_2(workdir, capsys):
    tmp_path, data, _ = workdir
    code = cli.main(["train", "--config", str(tmp_path), "--data", str(data),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"error: [Errno 21] Is a directory: '{tmp_path}'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["gen-corpus", "--seed", "-1", "--out", "{out}"],
    ["train", "--config", "{config}", "--data", "{data}", "--seed", "-1", "--out", "{out}"],
    ["generate", "--model", "{out}/model.ckpt", "--query", "q", "--seed", "-1",
     "--output", "{out}"],
    ["evaluate", "--model", "{out}/model.ckpt", "--ref-model", "{out}/model.ckpt",
     "--data", "{data}", "--train-data", "{data}", "--seed", "-1", "--out", "{out}"],
    ["compare", "--config", "{config}", "--data", "{data}", "--variants", "S2SA,CVAE",
     "--seed", "-1", "--out", "{out}"],
], ids=["gen-corpus", "train", "generate", "evaluate", "compare"])
def test_negative_seed_exits_2_before_any_file(workdir, capsys, argv):
    tmp_path, data, config = workdir
    out = tmp_path / "out"
    argv = [a.format(out=out, data=data, config=config) for a in argv]
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    assert "argument --seed: expected an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_key_exits_1(workdir, capsys):
    tmp_path, data, _ = workdir
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_option=1\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 1
    assert "no_such_option" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["use_r1=True", "decode_with_user=yes", "epochs=ten",
                                  "variant=GPT", "z_dim=0", "vocab_size=5", "num_users=1",
                                  "batch_size=0", "max_batches=-1", "clip_norm=-1", "lr=-1",
                                  "lr=nan", "epochs=-1", "checkpoint_every=-2",
                                  "train_ratio=1.5", "max_vocab=0", "split_seed=-1",
                                  "min_utterances=-1", "anneal_batches=0"])
def test_bad_config_value_exits_1(workdir, capsys, line):
    tmp_path, data, config = workdir
    bad = tmp_path / "bad.cfg"
    bad.write_text(TOY_CONFIG + line + "\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 1
    lineno = len(TOY_CONFIG.splitlines()) + 1
    key = line.partition("=")[0]
    assert f"{bad}:{lineno}: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_that_is_not_utf8_names_the_line(workdir, capsys):
    tmp_path, data, _ = workdir
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(TOY_CONFIG.encode() + b"# caf\xff\n")
    assert cli.main(["train", "--config", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 1
    lineno = len(TOY_CONFIG.splitlines()) + 1
    assert f"{bad}:{lineno}: not UTF-8" in capsys.readouterr().err


def test_variant_flag_errors_name_the_flag(workdir, capsys):
    tmp_path, data, config = workdir
    assert cli.main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "o"), "--variant", "GPT"]) == 1
    assert "--variant GPT: variant: unknown variant 'GPT'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_variant_override(workdir):
    from pagen.model import load_checkpoint
    out = _trained(workdir, variant="PAGENERATOR_NO_UE")
    _, cfg = load_checkpoint(out / "model.ckpt")
    assert cfg.variant == "PAGENERATOR"
    assert not cfg.decode_with_user


def test_generate_single_query(workdir, capsys):
    out = _trained(workdir)
    assert cli.main(["generate", "--model", str(out / "model.ckpt"),
                     "--user", "user1", "--query", "topic0 q1 q2",
                     "--beam", "3", "--max-length", "8", "--seed", "4"]) == 0
    reply = capsys.readouterr().out.strip()
    assert reply
    assert "<" not in reply  # no reserved tokens in the text


def test_generate_batch_mode(workdir):
    tmp_path, _, _ = workdir
    out = _trained(workdir)
    batch_in = tmp_path / "queries.tsv"
    batch_in.write_text("user0\ttopic1 q3\nuser2\ttopic2 q4 q5\n", encoding="utf-8")
    batch_out = tmp_path / "replies.txt"
    assert cli.main(["generate", "--model", str(out / "model.ckpt"),
                     "--input", str(batch_in), "--output", str(batch_out),
                     "--beam", "3", "--max-length", "8"]) == 0
    lines = batch_out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2


def test_generate_batch_mode_equals_per_line_generate(workdir):
    """--input decodes all lines in one batched search; its output is the
    text per-line generate calls give (line i is seeded with --seed + i)."""
    tmp_path, _, _ = workdir
    ckpt = _trained(workdir) / "model.ckpt"
    lines = ["user0\ttopic1 q3", "", "user2\ttopic2 q4 q5", "user1\tq1", "user0\ttopic0 q2 q7"]
    batch_in = tmp_path / "queries.tsv"
    batch_in.write_text("\n".join(lines) + "\n", encoding="utf-8")
    batch_out = tmp_path / "replies.txt"
    assert cli.main(["generate", "--model", str(ckpt), "--input", str(batch_in),
                     "--output", str(batch_out), "--beam", "3", "--max-length", "8",
                     "--seed", "5"]) == 0
    (params, config), vocab, users = cli.load_model_dir(str(ckpt))
    want = []
    for i, line in enumerate(lines):
        if line:
            user, query = line.split("\t")
            hyps = G.generate(G.GenRequest(query=vocab.encode(query.split()),
                                           user_index=users.index(user), beam_width=3,
                                           max_length=8, seed=5 + i), params, config)
            want.append(" ".join(vocab.decode(hyps[0].tokens)) + "\n")
    assert batch_out.read_text(encoding="utf-8") == "".join(want)


def test_a_failed_generate_leaves_the_previous_output(workdir, monkeypatch):
    """generate --output replaces its file only once every reply is
    written: decoding that fails midway leaves the previous output and no
    temporary file behind."""
    tmp_path, _, _ = workdir
    model = str(_trained(workdir) / "model.ckpt")
    batch_in = tmp_path / "queries.tsv"
    batch_in.write_text("user0\ttopic1 q3\nuser2\ttopic2 q4 q5\n", encoding="utf-8")
    batch_out = tmp_path / "replies.txt"
    argv = ["generate", "--model", model, "--input", str(batch_in), "--output", str(batch_out),
            "--beam", "2", "--max-length", "4"]
    assert cli.main(argv) == 0
    before = sorted(tmp_path.iterdir()), batch_out.read_bytes()
    real = G.generate_many

    def failing(requests, params, config):
        yield next(iter(real(requests, params, config)))
        raise ValueError("decoding failed")

    monkeypatch.setattr(G, "generate_many", failing)
    assert cli.main(argv) == 1
    assert (sorted(tmp_path.iterdir()), batch_out.read_bytes()) == before


def test_generate_rejects_unknown_users(workdir, capsys):
    tmp_path, _, _ = workdir
    model = str(_trained(workdir) / "model.ckpt")
    base = ["generate", "--model", model, "--beam", "2", "--max-length", "4"]
    assert cli.main(base + ["--user", "nobody", "--query", "topic0 q1"]) == 1
    assert "unknown user 'nobody'" in capsys.readouterr().err

    batch_in = tmp_path / "queries.tsv"
    batch_in.write_text("user0\ttopic1 q3\nghost\ttopic2 q4\n", encoding="utf-8")
    batch_out = tmp_path / "replies.txt"
    assert cli.main(base + ["--input", str(batch_in), "--output", str(batch_out)]) == 1
    assert f"{batch_in}:2: unknown user 'ghost'" in capsys.readouterr().err
    assert not batch_out.exists()

    assert cli.main(base + ["--user", C.UNSPECIFIED_USER_ID, "--query", "topic0 q1"]) == 0


def test_generate_rejects_all_oov_queries(workdir, capsys):
    tmp_path, _, _ = workdir
    model = str(_trained(workdir) / "model.ckpt")
    base = ["generate", "--model", model, "--beam", "2", "--max-length", "4"]
    assert cli.main(base + ["--user", "user0", "--query", "zzz qqq"]) == 1
    assert "no in-vocabulary token in query 'zzz qqq'" in capsys.readouterr().err

    batch_in = tmp_path / "queries.tsv"
    batch_in.write_text("user0\ttopic1 q3\nuser1\tzzz\n", encoding="utf-8")
    batch_out = tmp_path / "replies.txt"
    assert cli.main(base + ["--input", str(batch_in), "--output", str(batch_out)]) == 1
    assert f"{batch_in}:2: no in-vocabulary token" in capsys.readouterr().err
    assert not batch_out.exists()

    # one known token among unknown ones is enough
    assert cli.main(base + ["--user", "user0", "--query", "zzz topic0"]) == 0


@pytest.mark.parametrize("flags, flag", [(["--beam", "0"], "--beam"),
                                         (["--max-length", "-1"], "--max-length")])
def test_generate_checks_its_flags_before_opening_a_file(tmp_path, capsys, flags, flag):
    assert cli.main(["generate", "--model", str(tmp_path / "missing.ckpt"), "--query", "q",
                     *flags]) == 1
    err = capsys.readouterr().err
    assert flag in err and "missing.ckpt" not in err


def test_generate_output_without_input_exits_2(tmp_path, capsys):
    """--output is the file of --input's replies: with --query it is
    refused, before any file is opened, not ignored."""
    out = tmp_path / "replies.txt"
    with pytest.raises(SystemExit) as e:
        cli.main(["generate", "--model", str(tmp_path / "missing.ckpt"), "--query", "q",
                  "--output", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "argument --output" in err and "missing.ckpt" not in err
    assert not out.exists()


def test_generate_without_query_exits_2(workdir, capsys):
    out = _trained(workdir)
    with pytest.raises(SystemExit) as e:
        cli.main(["generate", "--model", str(out / "model.ckpt")])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--query" in err and "--input" in err


def test_generate_with_query_and_input_exits_2(workdir, capsys):
    """--query and --input exclude each other: neither is decoded."""
    tmp_path, _, _ = workdir
    out = _trained(workdir)
    batch_in = tmp_path / "queries.tsv"
    batch_in.write_text("user0\ttopic1 q3\n", encoding="utf-8")
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        cli.main(["generate", "--model", str(out / "model.ckpt"), "--query", "topic0 q1",
                  "--input", str(batch_in)])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err and not captured.out
    assert not (tmp_path / "queries.tsv.out").exists()


def test_evaluate_and_report(workdir, capsys):
    tmp_path, _, _ = workdir
    out = _trained(workdir)
    eval_dir = tmp_path / "eval"
    assert cli.main(["evaluate", "--model", str(out / "model.ckpt"),
                     "--ref-model", str(out / "model.ckpt"),
                     "--data", str(out / "test.tsv"),
                     "--train-data", str(out / "train.tsv"),
                     "--metrics", "bleu1,uppl", "--out", str(eval_dir)]) == 0
    results = cli.read_report(eval_dir / "report.txt")
    assert "bleu1" in results and "uppl" in results
    assert (eval_dir / "per_item.csv").exists()
    assert (eval_dir / "manifest.txt").exists()
    capsys.readouterr()

    assert cli.main(["report", str(eval_dir)]) == 0
    table = capsys.readouterr().out
    for col in cli.REPORT_COLUMNS:
        assert col in table


def test_evaluate_rejects_unknown_users(workdir, capsys, monkeypatch):
    tmp_path, _, _ = workdir
    out = _trained(workdir)
    lines = (out / "test.tsv").read_text(encoding="utf-8").splitlines()
    lines[-1] = "ghost\t" + lines[-1].partition("\t")[2]
    bad = tmp_path / "bad_test.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    decoded = []
    monkeypatch.setattr(cli.G, "generate_many", lambda *a, **k: decoded.append(a))
    assert cli.main(["evaluate", "--model", str(out / "model.ckpt"),
                     "--ref-model", str(out / "model.ckpt"), "--data", str(bad),
                     "--train-data", str(out / "train.tsv"), "--metrics", "bleu1",
                     "--out", str(tmp_path / "eval")]) == 1
    assert f"{bad}: unknown user 'ghost'" in capsys.readouterr().err
    assert not decoded  # rejected before any decoding
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("table, edit, expect", [
    ("vocab.txt", lambda names: names[:4] + names[5:6] + names[4:5] + names[6:],
     lambda names: f"row 4 of its vocab.txt is {names[5]!r}, the model's is {names[4]!r}"),
    ("vocab.txt", lambda names: names[:-4],
     lambda names: f"row {len(names) - 4} of its vocab.txt is missing, "
                   f"the model's is {names[-4]!r}"),
    ("users.txt", lambda names: names + ["ghost"],
     lambda names: f"row {len(names)} of its users.txt is 'ghost', the model's is missing"),
])
def test_evaluate_checks_the_reference_tables_before_decoding(workdir, capsys, monkeypatch,
                                                              table, edit, expect):
    """A reference whose vocabulary or user table names other rows than the
    model's fails naming --ref-model and the first differing row, even at
    the same size, where its token ids would silently mean other words."""
    tmp_path, _, _ = workdir
    out = _trained(workdir)
    names = (out / table).read_text(encoding="utf-8").splitlines()
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    (ref_dir / table).write_text("\n".join(edit(names)) + "\n", encoding="utf-8")
    other = "users.txt" if table == "vocab.txt" else "vocab.txt"
    (ref_dir / other).write_bytes((out / other).read_bytes())
    # a checkpoint whose sizes match its edited table
    params, config = M.load_checkpoint(out / "model.ckpt")
    key = "vocab_size" if table == "vocab.txt" else "num_users"
    config = M.ModelConfig.from_text(config.to_text().replace(
        f"{key}={getattr(config, key)}", f"{key}={len(edit(names))}"))
    M.save_checkpoint(ref_dir / "model.ckpt", M.init_params(config, seed=1), config)
    decoded = []
    monkeypatch.setattr(cli.G, "generate_many", lambda *a, **k: decoded.append(a))
    assert cli.main(["evaluate", "--model", str(out / "model.ckpt"),
                     "--ref-model", str(ref_dir / "model.ckpt"), "--data", str(out / "test.tsv"),
                     "--train-data", str(out / "train.tsv"), "--metrics", "bleu1",
                     "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert f"--ref-model {ref_dir / 'model.ckpt'}: {expect(names)}" in err
    assert not decoded
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("flag", ["--rounds", "--distractors", "--beam"])
def test_evaluate_checks_metric_flags_before_loading(tmp_path, capsys, flag):
    missing = str(tmp_path / "none")
    assert cli.main(["evaluate", "--model", missing, "--ref-model", missing,
                     "--data", missing, "--train-data", missing, flag, "0",
                     "--out", str(tmp_path / "eval")]) == 1
    assert f"{flag}: " in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("metrics, bad", [("urank,blue1", "'blue1'"), ("bleu1,embed", "embed")])
def test_evaluate_rejects_bad_metrics_before_loading(tmp_path, capsys, metrics, bad):
    """An unknown metric name, or embed without --vectors, fails before
    the model is even loaded (here it does not exist), from the CLI and
    from evaluate_model alike."""
    missing = str(tmp_path / "none")
    assert cli.main(["evaluate", "--model", missing, "--ref-model", missing,
                     "--data", missing, "--train-data", missing, "--metrics", metrics,
                     "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert "--metrics" in err and bad in err
    assert not (tmp_path / "eval").exists()
    with pytest.raises(M.ConfigError, match=bad):
        E.evaluate_model(None, None, [], [], None, None, metrics=tuple(metrics.split(",")))


@pytest.mark.parametrize("body, lineno", [(b"bleu1=0.5\n\nuppl 3.0\n", 3),
                                          (b"bleu1=0.5\nuppl=\xff\n", 2), (b"=0.5\n", 1)])
def test_report_names_the_line_it_cannot_read(tmp_path, capsys, body, lineno):
    path = tmp_path / "report.txt"
    path.write_bytes(body)
    with pytest.raises(C.CorpusError, match=f"report.txt:{lineno}: "):
        cli.read_report(path)
    assert cli.main(["report", str(path)]) == 1
    assert f"{path}:{lineno}: " in capsys.readouterr().err


def test_report_formats_missing_metrics_as_dash(capsys):
    print(cli.format_table([("partial", {"bleu1": 0.5})]))
    table = capsys.readouterr().out
    assert "0.5000" in table and "-" in table


def test_compare_sorts_a_nan_urank_last():
    rows = [("a", {"urank": 0.1}), ("b", {"urank": float("nan")}), ("c", {"urank": 0.3}),
            ("d", {"urank": 0.0})]
    for order in (rows, rows[::-1]):
        assert [label for label, _ in sorted(order, key=cli.by_urank)] == ["c", "a", "d", "b"]


def test_compare_two_variants(workdir, capsys):
    tmp_path, data, config = workdir
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(config), "--data", str(data),
                     "--variants", "S2SA,CVAE", "--reference", "S2SA",
                     "--rounds", "1", "--seed", "1", "--out", str(out)]) == 0
    assert (out / "comparison.csv").exists()
    for variant in ("S2SA", "CVAE"):
        assert (out / variant / "model.ckpt").exists()
        assert (out / variant / "eval" / "report.txt").exists()
    table = capsys.readouterr().out
    assert "S2SA" in table and "CVAE" in table


def test_compare_builds_the_reference_distractors_once(workdir, monkeypatch):
    tmp_path, data, config = workdir
    out = tmp_path / "cmp"
    real, calls = MX.make_distractors, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    score, scored = G.score_many, []

    def counted_scores(items, params, config, seeds):
        scored.append(config.variant)
        return score(items, params, config, seeds)

    monkeypatch.setattr(MX, "make_distractors", counted)
    monkeypatch.setattr(G, "score_many", counted_scores)
    variants = ("S2SA", "CVAE", "PAGENERATOR")
    assert cli.main(["compare", "--config", str(config), "--data", str(data),
                     "--variants", ",".join(variants), "--reference", "S2SA",
                     "--rounds", "2", "--seed", "1", "--out", str(out)]) == 0
    assert len(calls) == 1
    # the reference's uRank scores are one pass, shared by every row
    assert sorted(scored) == sorted(variants)
    # every row is what evaluate_model gives with distractors of its own
    ref, vocab, users = cli.load_model_dir(out / "S2SA" / "model.ckpt")
    train_set, test_set = (C.read_triples(out / "S2SA" / f) for f in ("train.tsv", "test.tsv"))
    lines = [",".join(("variant",) + tuple(cli.REPORT_KEYS))]
    for variant in variants:
        results, _ = E.evaluate_model(
            M.load_checkpoint(out / variant / "model.ckpt"), ref, train_set, test_set, vocab,
            users, metric_config=MX.MetricConfig(rounds=2), seed=1,
            metrics=("bleu1", "urank", "uppl", "udistinct"))
        lines.append(",".join([variant] + [repr(results.get(k, float("nan")))
                                           for k in cli.REPORT_KEYS]))
    assert len(calls) == 4
    assert (out / "comparison.csv").read_bytes() == "".join(
        line + "\r\n" for line in lines).encode()


def test_compare_rejects_single_variant(workdir, capsys):
    tmp_path, data, config = workdir
    assert cli.main(["compare", "--config", str(config), "--data", str(data),
                     "--variants", "S2SA", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("flags, flag, bad", [
    (["--variants", "S2SA,CVAE,PAGENERATR"], "--variants", "'PAGENERATR'"),
    (["--variants", "S2SA,CVAE", "--reference", "VAE"], "--reference", "'VAE'"),
    (["--variants", "S2SA,CVAE", "--rounds", "0"], "--rounds", "must be >= 1, got 0"),
    (["--variants", "S2SA,S2SA"], "--variants", "'S2SA' is listed twice")])
def test_compare_checks_its_names_before_training(workdir, capsys, monkeypatch, flags, flag, bad):
    tmp_path, data, config = workdir
    trained = []
    monkeypatch.setattr(cli, "train", lambda *a, **k: trained.append(a))
    assert cli.main(["compare", "--config", str(config), "--data", str(data), *flags,
                     "--out", str(tmp_path / "cmp")]) == 1
    err = capsys.readouterr().err
    assert flag in err and bad in err
    assert not trained and not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("variants, reference", [("CVAE,S2SA", "S2SA"), ("CVAE,VAE", "CVAE")])
def test_compare_reference_defaults_to_s2sa_else_the_first(tmp_path, monkeypatch, variants,
                                                           reference):
    class Loaded(Exception):
        pass

    def load(path):
        raise Loaded(path)

    monkeypatch.setattr(cli, "run_training", lambda *a, **k: None)
    monkeypatch.setattr(cli, "load_model_dir", load)
    with pytest.raises(Loaded) as e:
        cli.main(["compare", "--config", "c", "--data", "d", "--variants", variants,
                  "--out", str(tmp_path)])
    assert e.value.args[0] == os.path.join(str(tmp_path), reference, "model.ckpt")


def test_selfcheck_exit_code(capsys):
    assert cli.main(["selfcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck: PASS" in out
    assert "end-to-end" in out


def test_selfcheck_fails_on_a_wrong_end_to_end_gradient(monkeypatch, capsys):
    monkeypatch.setattr(selfcheck, "check_end_to_end",
                        lambda seed: {"enc_fwd_W": 1e-9, "dec_W": 1.0, "out_W": 2e-9})
    assert cli.main(["selfcheck"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL end-to-end loss gradients: max_rel_err=1.000e+00\n"
            "  failing parameters: dec_W\n") in out
    assert out.endswith("selfcheck: FAIL\n")


def test_selfcheck_fails_on_a_wrong_primitive_gradient(monkeypatch, capsys):
    x = Tensor(np.linspace(-1.0, 1.0, 4), requires_grad=True)
    # forward 2x, backward as if x: relative error |1 - 2| / (1 + 2)
    wrong = ("double", lambda: ad.reduce_sum(ad._result(2.0 * x.data, (x,),
                                                         lambda g: ad._accum(x, g))), {"x": x})
    cases = selfcheck.primitive_cases
    monkeypatch.setattr(selfcheck, "primitive_cases", lambda seed: cases(seed) + [wrong])
    assert cli.main(["selfcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL primitive double: max_rel_err=3.333e-01\n" in out
    assert "ok   end-to-end loss gradients" in out
    assert out.endswith("selfcheck: FAIL\n")


def test_manifests_name_the_numeric_environment(workdir):
    """train, evaluate and compare record numpy's version, the BLAS and its
    thread count, which pagen pins to 1, and a rerun writes the same bytes."""
    tmp_path, data, config = workdir

    def manifests(tag):
        run = tmp_path / tag
        assert cli.main(["compare", "--config", str(config), "--data", str(data),
                         "--variants", "S2SA,CVAE", "--rounds", "1", "--seed", "1",
                         "--out", str(run)]) == 0
        assert cli.main(["evaluate", "--model", str(run / "CVAE" / "model.ckpt"),
                         "--ref-model", str(run / "S2SA" / "model.ckpt"),
                         "--data", str(run / "CVAE" / "test.tsv"),
                         "--train-data", str(run / "CVAE" / "train.tsv"),
                         "--metrics", "bleu1,uppl", "--out", str(run / "eval")]) == 0
        return {str(p.relative_to(run)): p.read_bytes() for p in run.rglob("manifest.txt")}

    first = manifests("a")
    assert sorted(first) == ["CVAE/eval/manifest.txt", "CVAE/manifest.txt",
                             "S2SA/eval/manifest.txt", "S2SA/manifest.txt", "eval/manifest.txt"]
    for text in first.values():
        entries = dict(line.split("=", 1) for line in text.decode().splitlines())
        assert entries["numpy"] == np.__version__
        assert entries["blas"] == ad.ENVIRONMENT["blas"] != ""
        assert entries["blas_threads"] in ("1", "unknown")
    assert manifests("b") == first


FIXED_RUN = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "fixed_run.py")
FIXED_RUN_LINES = os.path.join(os.path.dirname(__file__), "fixed_run.txt")


def test_the_fixed_run_prints_its_checked_in_lines(tmp_path):
    """tools/fixed_run.py prints tests/fixed_run.txt's lines: a golden of
    every bit of 12 trainings and 12 evaluations.  The file's `#` lines name
    the environment it was made in; in another one the bits, and the
    manifests that name it, may differ, and the failure says so."""
    with open(FIXED_RUN_LINES, encoding="utf-8") as f:
        lines = f.read().splitlines()
    made_in = [line[2:] for line in lines if line.startswith("# ")]
    expected = [line for line in lines if not line.startswith("#")]
    printed = subprocess.run([sys.executable, FIXED_RUN, str(tmp_path / "run")], check=True,
                             capture_output=True, text=True).stdout.splitlines()
    if printed != expected:
        i = next((i for i, pair in enumerate(zip(printed, expected)) if pair[0] != pair[1]),
                 min(len(printed), len(expected)))
        here = [f"{k}={v}" for k, v in ad.ENVIRONMENT.items()]
        pytest.fail(f"fixed run line {i + 1}: printed {printed[i:i + 1]}, expected "
                    f"{expected[i:i + 1]} ({len(printed)} lines against {len(expected)}); "
                    f"the lines were made with {', '.join(made_in)}; this run has "
                    f"{', '.join(here)}")
