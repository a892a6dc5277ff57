"""Command-line entry point: corpus generation, training, generation,
evaluation, self-checks, report formatting, and variant comparison.

All randomness is seeded from --seed; reports contain no timestamps so a
rerun with identical manifest inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import corpus as C
from . import evaluate as E
from . import generation as G
from . import metrics as MX
from . import model as M
from . import selfcheck
from .autodiff import ContractError, ShapeError
from .model import ModelConfig
from .trainer import TrainConfig, encode_triples, train


ABLATIONS = {
    "PAGENERATOR_NO_R1": ("PAGENERATOR", {"use_r1": False}),
    "PAGENERATOR_NO_R2": ("PAGENERATOR", {"use_r2": False}),
    "PAGENERATOR_NO_UE": ("PAGENERATOR", {"decode_with_user": False}),
}

# the flag that sets each MetricConfig field, named by its range errors
METRIC_FLAGS = {"rounds": "--rounds", "n_distractors": "--distractors", "beam_width": "--beam",
                "max_length": "--max-length"}
# the flag that sets each generate_synthetic argument, named by its range errors
CORPUS_FLAGS = {"num_users": "--users", "triples_per_user": "--triples-per-user",
                "signature_strength": "--strength"}


def non_negative_int(text):
    """argparse type of --seed and --log-every, checked before any file is read."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return int(text)


def file_hash(path):
    """16 hex digits of BLAKE2b (provenance for the manifest)."""
    with open(path, "rb") as f:
        return hashlib.blake2b(f.read(), digest_size=8).hexdigest()


def write_manifest(path, entries):
    with C.atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        for k in sorted(entries):
            f.write(f"{k}={entries[k]}\n")


@dataclass
class DataConfig:
    min_utterances: int = 1
    train_ratio: float = 0.9
    max_vocab: int = 20000
    split_seed: int = 0

    def __post_init__(self):
        M.check_range(self, ("min_utterances", "split_seed"), lambda v: v >= 0, ">= 0")
        M.check_range(self, ("max_vocab",), lambda v: v >= 1, ">= 1")
        M.check_range(self, ("train_ratio",), lambda v: 0 < v < 1, "in (0, 1)")


def read_flat_config(path):
    """Flat key=value file split into model kwargs, TrainConfig and
    DataConfig, plus the "file:line" of each key read."""
    (model_kwargs, trainer_kwargs, data_kwargs), where = M.parse_config_lines(
        C.read_lines(path), path, ModelConfig, TrainConfig, DataConfig)
    return (model_kwargs, M.checked(TrainConfig, trainer_kwargs, where),
            M.checked(DataConfig, data_kwargs, where), where)


def prepare_data(data_path, data):
    triples = C.load_corpus(data_path, min_utterances=data.min_utterances)
    train_set, test_set = C.split(triples, data.train_ratio, seed=data.split_seed)
    vocab = C.Vocabulary.build(train_set, max_size=data.max_vocab)
    users = C.UserTable.build(t.user_id for t in triples)
    return train_set, test_set, vocab, users


def run_training(data_path, config_path, out_dir, seed, variant=None, log_every=0):
    model_kwargs, tcfg, data, where = read_flat_config(config_path)
    for key in ("vocab_size", "num_users"):
        if key in model_kwargs:
            raise ValueError(f"{where[key]}: {key}: set from the data, not by the config")
    if variant:
        base, extra = ABLATIONS.get(variant, (variant, {}))
        model_kwargs["variant"] = base
        model_kwargs.update(extra)
        where.update(dict.fromkeys(["variant", *extra], f"--variant {variant}"))
    train_set, test_set, vocab, users = prepare_data(data_path, data)
    model_kwargs["vocab_size"] = len(vocab)
    model_kwargs["num_users"] = len(users)
    config = M.checked(ModelConfig, model_kwargs, where)

    os.makedirs(out_dir, exist_ok=True)
    C.write_corpus(os.path.join(out_dir, "train.tsv"), train_set)
    C.write_corpus(os.path.join(out_dir, "test.tsv"), test_set)
    vocab.save(os.path.join(out_dir, "vocab.txt"))
    users.save(os.path.join(out_dir, "users.txt"))
    ckpt, history = train(train_set, vocab, users, config, tcfg, seed, out_dir,
                          log_every=log_every)
    write_manifest(os.path.join(out_dir, "manifest.txt"), {
        "command": "train",
        "config_hash": file_hash(config_path),
        "corpus_hash": file_hash(data_path),
        "seed": seed,
        "checkpoint_hash": file_hash(ckpt),
        "version": __version__,
    })
    return ckpt, history


def load_model_dir(ckpt_path, vocab_path=None, users_path=None):
    """A checkpoint with the vocabulary and user table that name its
    embedding rows, by default the vocab.txt and users.txt beside it."""
    params, config = M.load_checkpoint(ckpt_path)
    vocab_path = vocab_path or os.path.join(os.path.dirname(ckpt_path), "vocab.txt")
    users_path = users_path or os.path.join(os.path.dirname(ckpt_path), "users.txt")
    vocab, users = C.Vocabulary.load(vocab_path), C.UserTable.load(users_path)
    for path, table, size in ((vocab_path, vocab, "vocab_size"), (users_path, users, "num_users")):
        if len(table) != getattr(config, size):
            raise C.CorpusError(f"{path}: {len(table)} names, but {ckpt_path} has "
                                f"{size}={getattr(config, size)}")
    return (params, config), vocab, users


def check_same_names(flag, ckpt_path, tables, ref_tables):
    """Raise ValueError naming flag and ckpt_path at the first row where a
    table beside that checkpoint, (vocabulary, users), differs from the
    model's."""
    for name, mine, ref in zip(("vocab.txt", "users.txt"), tables, ref_tables):
        n = max(len(mine), len(ref))
        i = next((i for i in range(n) if mine.names[i:i + 1] != ref.names[i:i + 1]), n)
        if i < n:
            got, want = (repr(t.names[i]) if i < len(t) else "missing" for t in (ref, mine))
            raise ValueError(f"{flag} {ckpt_path}: row {i} of its {name} is {got}, "
                             f"the model's is {want}")


REPORT_COLUMNS = ("BLEU", "Average", "Extreme", "Greedy", "uRank", "uPPL",
                  "uDist-1", "uDist-2")
REPORT_KEYS = ("bleu1", "embed_average", "embed_extrema", "embed_greedy",
               "urank", "uppl", "udist1", "udist2")


def format_table(rows):
    """rows: list of (label, results dict)."""
    lines = ["{:<22}".format("Method") + "".join(f"{c:>10}" for c in REPORT_COLUMNS)]
    for label, res in rows:
        cells = []
        for key in REPORT_KEYS:
            v = res.get(key)
            cells.append(f"{v:>10.4f}" if v is not None and np.isfinite(v) else f"{'-':>10}")
        lines.append(f"{label:<22}" + "".join(cells))
    return "\n".join(lines)


def write_report(out_dir, results, rows, manifest):
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(os.path.join(out_dir, "report.txt"), results)
    with C.atomic_open(os.path.join(out_dir, "per_item.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("item", "metric", "value"))
        for r in rows:
            w.writerow([r[0], r[1], repr(r[2])])
    write_manifest(os.path.join(out_dir, "manifest.txt"), manifest)


def read_report(path):
    """A report's key=value lines as a dict, floats where they parse; a line
    that is not UTF-8, or neither blank nor key=value, fails naming path:line."""
    results = {}
    for lineno, line in enumerate(C.read_lines(path), 1):
        k, sep, v = line.strip().partition("=")
        if line.strip() and not (k and sep):
            raise C.CorpusError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
        if k:
            try:
                results[k] = float(v)
            except ValueError:
                results[k] = v
    return results


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_corpus(args):
    triples = M.checked(C.generate_synthetic,
                        dict(num_users=args.users, triples_per_user=args.triples_per_user,
                             signature_strength=args.strength, seed=args.seed), CORPUS_FLAGS)
    C.write_corpus(args.out, triples)
    print(f"wrote {len(triples)} triples to {args.out}")
    return 0


def cmd_train(args):
    ckpt, history = run_training(args.data, args.config, args.out, args.seed,
                                 variant=args.variant, log_every=args.log_every)
    print(f"checkpoint: {ckpt} ({len(history)} batches)")
    return 0


def cmd_generate(args):
    # the decoding flags' ranges, before any file is opened
    M.checked(MX.MetricConfig, dict(beam_width=args.beam, max_length=args.max_length),
              METRIC_FLAGS)
    model, vocab, users = load_model_dir(args.model, args.vocab, args.users_file)
    params, config = model

    def request(user_id, query, seed, where):
        """A checked request: known user, at least one in-vocabulary token."""
        user, tokens = users.index(user_id, where), vocab.encode(query.split())
        if all(t == C.UNK for t in tokens):
            raise ValueError(f"{where}no in-vocabulary token in query {query!r}")
        return G.GenRequest(query=tokens, user_index=user, beam_width=args.beam,
                            max_length=args.max_length, z_mode=args.mode, seed=seed)

    def reply(hyps):
        return " ".join(vocab.decode(hyps[0].tokens)) if hyps and hyps[0].tokens else ""

    if args.input is not None:
        # every line is checked before any decoding or output
        requests = []
        for i, line in enumerate(C.read_lines(args.input)):
            if line.strip():
                user_id, _, query = line.rstrip("\n").partition("\t")
                requests.append(request(user_id, query, args.seed + i,
                                        f"{args.input}:{i + 1}: "))
        with C.atomic_open(args.output or args.input + ".out", "w", encoding="utf-8",
                           newline="\n") as f_out:
            for hyps in G.generate_many(requests, params, config):
                f_out.write(reply(hyps) + "\n")
        return 0
    print(reply(G.generate(request(args.user, args.query, args.seed, ""), params, config)))
    return 0


def cmd_evaluate(args):
    metric_list = tuple(args.metrics.split(","))
    try:  # before anything is loaded or decoded
        E.check_metrics(metric_list, args.vectors)
    except M.ConfigError as e:
        raise ValueError(f"--{e}") from None
    cfg = M.checked(MX.MetricConfig, dict(rounds=args.rounds, n_distractors=args.distractors,
                                          beam_width=args.beam), METRIC_FLAGS)
    model, vocab, users = load_model_dir(args.model, args.vocab, args.users_file)
    ref_model, *ref_tables = load_model_dir(args.ref_model)
    check_same_names("--ref-model", args.ref_model, (vocab, users), ref_tables)
    test_set = C.read_triples(args.data)
    for t in test_set:  # every user is checked before any decoding
        users.index(t.user_id, f"{args.data}: ")
    train_set = C.read_triples(args.train_data)
    vectors = MX.load_word_vectors(args.vectors) if args.vectors else None
    results, rows = E.evaluate_model(model, ref_model, train_set, test_set, vocab,
                                     users, metric_config=cfg, seed=args.seed,
                                     metrics=metric_list, vectors=vectors)
    manifest = {
        "command": "evaluate",
        "model_hash": file_hash(args.model),
        "ref_model_hash": file_hash(args.ref_model),
        "corpus_hash": file_hash(args.data),
        "seed": args.seed,
        "version": __version__,
    }
    write_report(args.out, results, rows, manifest)
    print(format_table([(os.path.basename(args.model), results)]))
    return 0


def cmd_selfcheck(args):
    ok = selfcheck.run_all(seed=args.seed)
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_report(args):
    rows = []
    for run in args.runs:
        path = os.path.join(run, "report.txt") if os.path.isdir(run) else run
        rows.append((os.path.basename(os.path.dirname(path) or path), read_report(path)))
    print(format_table(rows))
    return 0


def by_urank(row):
    """Sort key of a (label, results) row: best uRank first, a missing or
    nan uRank (no item had enough distractors) last."""
    u = row[1].get("urank")
    return math.inf if u is None or math.isnan(u) else -u


def cmd_compare(args):
    variants = args.variants.split(",")
    if len(variants) < 2:
        print("error: compare needs at least 2 variants", file=sys.stderr)
        return 2
    known = M.VARIANTS + tuple(ABLATIONS)
    for variant in variants:  # every name is checked before the first training
        if variant not in known:
            raise ValueError(f"--variants: unknown variant {variant!r} "
                             f"(expected some of {', '.join(known)})")
        if variants.count(variant) > 1:
            raise ValueError(f"--variants: {variant!r} is listed twice")
    ref_name = args.reference or ("S2SA" if "S2SA" in variants else variants[0])
    if ref_name not in variants:
        raise ValueError(f"--reference: {ref_name!r} is not one of --variants")
    metric_config = M.checked(MX.MetricConfig, {"rounds": args.rounds}, METRIC_FLAGS)
    run_dirs = {variant: os.path.join(args.out, variant) for variant in variants}
    for variant, run_dir in run_dirs.items():
        run_training(args.data, args.config, run_dir, args.seed, variant=variant)

    ref_dir = run_dirs[ref_name]
    ref_model, vocab, users = load_model_dir(os.path.join(ref_dir, "model.ckpt"))
    train_set = C.read_triples(os.path.join(ref_dir, "train.tsv"))
    test_set = C.read_triples(os.path.join(ref_dir, "test.tsv"))

    # the reference's beam-search distractors and its ranks of the truth
    # among them are the same for every variant
    distractors = MX.make_distractors(encode_triples(test_set, vocab, users), ref_model,
                                      metric_config)
    ref_ranks = MX.rank_counts(distractors, ref_model, metric_config, seed=args.seed)
    rows = []
    for variant in variants:
        model = (ref_model if variant == ref_name
                 else M.load_checkpoint(os.path.join(run_dirs[variant], "model.ckpt")))
        results, per_item = E.evaluate_model(
            model, ref_model, train_set, test_set, vocab, users,
            metric_config=metric_config, seed=args.seed, metrics=E.DEFAULT_METRICS,
            distractors=distractors, reference_ranks=ref_ranks)
        write_report(os.path.join(args.out, variant, "eval"), results, per_item, {
            "command": "compare",
            "variant": variant,
            "config_hash": file_hash(args.config),
            "corpus_hash": file_hash(args.data),
            "seed": args.seed,
            "version": __version__,
        })
        rows.append((variant, results))

    with C.atomic_open(os.path.join(args.out, "comparison.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("variant",) + tuple(REPORT_KEYS))
        for label, res in rows:
            w.writerow([label] + [repr(res.get(k, float("nan"))) for k in REPORT_KEYS])
    rows.sort(key=by_urank)
    print(format_table(rows))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="pagen",
                                description="persona-aware variational response generator")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-corpus", help="generate a synthetic persona corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--users", type=int, default=8)
    g.add_argument("--triples-per-user", type=int, default=400)
    g.add_argument("--strength", type=float, default=0.9)
    g.add_argument("--seed", type=non_negative_int, default=0)
    g.set_defaults(fn=cmd_gen_corpus)

    t = sub.add_parser("train", help="train one model variant")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=non_negative_int, default=0)
    t.add_argument("--variant", default=None)
    t.add_argument("--log-every", type=non_negative_int, default=0, metavar="N",
                   help="print the losses every N batches (0: never)")
    t.set_defaults(fn=cmd_train)

    d = sub.add_parser("generate", help="decode replies from a checkpoint")
    d.add_argument("--model", required=True)
    d.add_argument("--vocab", default=None)
    d.add_argument("--users-file", default=None)
    d.add_argument("--user", default=C.UNSPECIFIED_USER_ID)
    source = d.add_mutually_exclusive_group(required=True)
    source.add_argument("--query")
    source.add_argument("--input", help="batch mode: user TAB query per line")
    d.add_argument("--output", default=None)
    d.add_argument("--beam", type=int, default=10)
    d.add_argument("--max-length", type=int, default=30)
    d.add_argument("--mode", choices=("sample", "mean"), default="sample")
    d.add_argument("--seed", type=non_negative_int, default=0)
    d.set_defaults(fn=cmd_generate)

    e = sub.add_parser("evaluate", help="run metrics for a checkpoint")
    e.add_argument("--model", required=True)
    e.add_argument("--ref-model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--train-data", required=True)
    e.add_argument("--vocab", default=None)
    e.add_argument("--users-file", default=None)
    e.add_argument("--vectors", default=None)
    e.add_argument("--metrics", default=",".join(E.DEFAULT_METRICS))
    e.add_argument("--rounds", type=int, default=10)
    e.add_argument("--distractors", type=int, default=10)
    e.add_argument("--beam", type=int, default=10)
    e.add_argument("--seed", type=non_negative_int, default=0)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_evaluate)

    s = sub.add_parser("selfcheck", help="gradient checks and metric oracles")
    s.add_argument("--seed", type=non_negative_int, default=0)
    s.set_defaults(fn=cmd_selfcheck)

    r = sub.add_parser("report", help="format evaluation reports as a table")
    r.add_argument("runs", nargs="+")
    r.set_defaults(fn=cmd_report)

    c = sub.add_parser("compare", help="train and evaluate several variants")
    c.add_argument("--config", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--variants", required=True,
                   help="comma list, e.g. PAGENERATOR,CVAE,PAGENERATOR_NO_UE")
    c.add_argument("--reference", default=None, help="default: S2SA if listed, else the first")
    c.add_argument("--rounds", type=int, default=10)
    c.add_argument("--seed", type=non_negative_int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_compare)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:  # a path that is missing, a directory or unreadable
        parser.print_usage(sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ContractError, ShapeError, C.CorpusError, ValueError) as e:
        print(f"error: {type(e).__module__}.{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
