"""Unit tests for corpus IO, vocabulary, splitting, and synthetic data."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import np_oracle
from pagen import corpus as C
from pagen import metrics as MX
from pagen.corpus import (BOS, EOS, PAD, RESERVED, UNK, UNSPECIFIED_USER,
                          UNSPECIFIED_USER_ID, CorpusError, DialogueTriple,
                          UserTable, Vocabulary)


def test_reserved_indices():
    assert (PAD, UNK, BOS, EOS) == (0, 1, 2, 3)
    v = Vocabulary()
    assert [v.index(t) for t in RESERVED] == [0, 1, 2, 3]


def test_parse_line():
    t = C.parse_line("bob\thello there\thi bob", 1)
    assert t.user_id == "bob"
    assert t.query == ["hello", "there"]
    assert t.reply == ["hi", "bob"]


def test_parse_line_field_count_error_mentions_line():
    with pytest.raises(CorpusError, match="line 17"):
        C.parse_line("only one\ttab", 17)
    with pytest.raises(CorpusError, match="line 3"):
        C.parse_line("a\tb\tc\td", 3)


def test_read_triples_errors_name_file_and_line(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_bytes(b"u\tq\tr\nu\tq \xff\tr\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}:2: not UTF-8")):
        C.read_triples(path)
    path.write_text("u\tq\tr\nu\tq\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line 2: expected 3")):
        C.read_triples(path)


def test_parse_line_empty_field():
    with pytest.raises(CorpusError):
        C.parse_line("bob\t\thi", 1)
    with pytest.raises(CorpusError):
        C.parse_line("\thello\thi", 1)


def test_triple_validation():
    with pytest.raises(CorpusError):
        DialogueTriple("", ["q"], ["r"])
    with pytest.raises(CorpusError):
        DialogueTriple("u", [], ["r"])


def test_corpus_roundtrip(tmp_path, tiny_triples):
    path = tmp_path / "c.tsv"
    C.write_corpus(path, tiny_triples)
    back = C.read_triples(path)
    assert back == tiny_triples


def test_read_triples_skips_blank_lines(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("a\tq q\tr r\n\n\nb\tx\ty\n", encoding="utf-8")
    assert len(C.read_triples(path)) == 2


def test_read_triples_empty_corpus(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty corpus"):
        C.read_triples(path)


def test_vocab_frequency_ranking():
    triples = [DialogueTriple("u", ["b", "b", "a"], ["c", "c", "c"]),
               DialogueTriple("u", ["a"], ["b"])]
    v = Vocabulary.build(triples)
    # c appears 3x, b 3x (tie broken lexicographically), a 2x
    assert v.index("b") == 4
    assert v.index("c") == 5
    assert v.index("a") == 6
    assert v.index("zzz") == UNK


def test_vocab_max_size():
    triples = [DialogueTriple("u", [f"t{i}" for i in range(10)], ["r"])]
    v = Vocabulary.build(triples, max_size=3)
    assert len(v) == len(RESERVED) + 3


def test_vocab_train_split_has_zero_unk_rate():
    triples = C.generate_synthetic(4, 50, 0.9, seed=5)
    tr, _ = C.split(triples, 0.9, seed=0)
    v = Vocabulary.build(tr)
    for t in tr:
        assert UNK not in v.encode(t.query + t.reply)


def test_encode_decode_roundtrip(tiny_triples):
    v = Vocabulary.build(tiny_triples)
    toks = tiny_triples[0].query
    assert v.decode(v.encode(toks)) == toks


def test_user_table():
    u = UserTable.build(["zed", "amy"])
    assert u.index(UNSPECIFIED_USER_ID) == UNSPECIFIED_USER
    assert u.index("amy") == 1
    assert u.index("zed") == 2
    with pytest.raises(CorpusError, match="test.tsv: unknown user 'nobody'"):
        u.index("nobody", "test.tsv: ")


def test_user_table_skips_the_unspecified_id(tmp_path):
    """An id list that holds the unspecified user (as a corpus with
    remapped sparse users does) still gives one row per user."""
    u = UserTable.build([UNSPECIFIED_USER_ID, "alice"])
    assert u.names == [UNSPECIFIED_USER_ID, "alice"]
    assert u.ids == {UNSPECIFIED_USER_ID: UNSPECIFIED_USER, "alice": 1}
    u.save(tmp_path / "users.txt")
    assert UserTable.load(tmp_path / "users.txt").names == u.names


def test_vocab_and_users_file_roundtrip(tmp_path, tiny_triples):
    v = Vocabulary.build(tiny_triples)
    u = UserTable.build({t.user_id for t in tiny_triples})
    v.save(tmp_path / "vocab.txt")
    u.save(tmp_path / "users.txt")
    assert (tmp_path / "vocab.txt").read_text(encoding="utf-8") == "".join(
        name + "\n" for name in v.names)
    v2 = Vocabulary.load(tmp_path / "vocab.txt")
    u2 = UserTable.load(tmp_path / "users.txt")
    assert (v2.names, v2.ids) == (v.names, v.ids)
    assert (u2.names, u2.ids) == (u.names, u.ids)


@pytest.mark.parametrize("table", [Vocabulary, UserTable], ids=["load_vocab", "load_users"])
def test_vocab_and_users_not_utf8_name_the_line(tmp_path, table):
    path = tmp_path / "table.txt"
    table.build([]).save(path)
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(lines[:1] + [b"caf\xff"] + lines[1:]))
    with pytest.raises(CorpusError, match=re.escape(f"{path}:2: not UTF-8")):
        table.load(path)


def test_load_vocab_missing_reserved(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("hello\nworld\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(f"{path}:1: expected reserved name '<pad>'")):
        Vocabulary.load(path)
    path.write_text("<pad>\n\n<unk>\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(f"{path}: end of file: expected "
                                                    "reserved name '<bos>'")):
        Vocabulary.load(path)
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(f"{path}: end of file: expected "
                                                    "reserved name '<unk_user>'")):
        UserTable.load(path)


@pytest.mark.parametrize("table, names", [
    (Vocabulary, RESERVED + ["a", "b"]),
    (UserTable, [UNSPECIFIED_USER_ID, "alice", "bob"]),
])
def test_a_repeated_line_names_the_file_and_line(tmp_path, table, names):
    """A table file with one name twice fails naming the line of the
    repeat and the line of the first one (blank lines still count)."""
    path = tmp_path / "table.txt"
    path.write_text("\n".join(names + ["", names[-2]]) + "\n", encoding="utf-8")
    n = len(names)
    with pytest.raises(CorpusError, match=re.escape(
            f"{path}:{n + 2}: {names[-2]!r} repeats {path}:{n - 1}")):
        table.load(path)


@pytest.mark.parametrize("names, message", [
    (RESERVED + ["a", "b", "a"], "index 6: 'a' repeats index 4"),
    (RESERVED + ["<unk>"], "index 4: '<unk>' repeats index 1"),
    (["<unk>", "<pad>", "<bos>", "<eos>"], "index 0: expected reserved name '<pad>'"),
    (RESERVED[:3], "index 3: expected reserved name '<eos>'"),
    ([], "index 0: expected reserved name '<pad>'"),
])
def test_a_table_with_gaps_cannot_be_built(names, message):
    """Index = position holds for every table: a repeated name or a missing
    or misplaced reserved name, which would leave an index without a name
    or a name with two indices, raises."""
    with pytest.raises(CorpusError, match=re.escape(message)):
        Vocabulary(names)


def test_reserved_spellings_keep_their_reserved_index():
    """A corpus token spelled like a reserved name is not ranked as a word:
    every index keeps one name and the token encodes to its reserved id."""
    triples = [DialogueTriple("u", ["<eos>", "a", "<pad>"], ["<unk>", "<eos>", "b"])]
    v = Vocabulary.build(triples)
    assert v.names == RESERVED + ["a", "b"]
    assert v.encode(["<pad>", "<unk>", "<bos>", "<eos>", "a"]) == [PAD, UNK, BOS, EOS, 4]
    assert len(Vocabulary.build(triples, max_size=1)) == len(RESERVED) + 1


def test_load_corpus_remaps_sparse_users(tmp_path):
    lines = ["big\tq\tr\n"] * 3 + ["small\tq\tr\n"]
    (tmp_path / "c.tsv").write_text("".join(lines), encoding="utf-8")
    triples = C.load_corpus(tmp_path / "c.tsv", min_utterances=2)
    users = UserTable.build(t.user_id for t in triples)
    assert sum(1 for t in triples if t.user_id == UNSPECIFIED_USER_ID) == 1
    assert users.names == [UNSPECIFIED_USER_ID, "big"]


def test_split_keeps_every_user_in_train():
    triples = C.generate_synthetic(6, 20, 0.9, seed=1)
    tr, te = C.split(triples, 0.8, seed=0)
    assert {t.user_id for t in tr} == {t.user_id for t in triples}
    assert len(tr) + len(te) == len(triples)


def test_split_rounding_example():
    triples = [DialogueTriple("u", ["q"], [f"r{i}"]) for i in range(200)]
    tr, te = C.split(triples, 0.995, seed=0)
    assert (len(tr), len(te)) == (199, 1)


def test_split_minimum_one_train_example():
    triples = [DialogueTriple("solo", ["q"], ["r1"]),
               DialogueTriple("solo", ["q"], ["r2"])]
    tr, te = C.split(triples, 0.01, seed=0)
    assert len(tr) == 1 and len(te) == 1


def test_split_deterministic():
    triples = C.generate_synthetic(4, 30, 0.9, seed=2)
    a = C.split(triples, 0.9, seed=3)
    b = C.split(triples, 0.9, seed=3)
    assert a == b


def test_split_ratio_bounds():
    with pytest.raises(CorpusError):
        C.split([DialogueTriple("u", ["q"], ["r"])], 1.0)


def test_synthetic_deterministic():
    a = C.generate_synthetic(4, 25, 0.9, seed=11)
    b = C.generate_synthetic(4, 25, 0.9, seed=11)
    assert a == b
    c = C.generate_synthetic(4, 25, 0.9, seed=12)
    assert a != c


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(num_users=st.integers(2, 12), triples_per_user=st.integers(1, 80),
       strength=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 10**6))
@example(num_users=8, triples_per_user=400, strength=0.9, seed=0)  # README's quick start
def test_synthetic_draws_what_choice_drew(num_users, triples_per_user, strength, seed):
    """Each user's CDF, built once, picks the words Generator.choice(p=...)
    picked reply by reply: every triple is the reference's."""
    assert C.generate_synthetic(num_users, triples_per_user, strength, seed) == \
        np_oracle.generate_synthetic_np(num_users, triples_per_user, strength, seed)


def test_equal_tokens_are_one_str(tmp_path):
    """A generated and a loaded corpus hold one str object per distinct
    token, not one per occurrence."""
    generated = C.generate_synthetic(4, 30, 0.9, seed=3)
    path = tmp_path / "c.tsv"
    C.write_corpus(path, generated)
    for triples in (generated, C.read_triples(path)):
        tokens = [tok for t in triples for tok in t.query + t.reply]
        assert all(type(tok) is str for tok in tokens)
        assert len({id(tok) for tok in tokens}) == len(set(tokens)) < len(tokens)


def test_synthetic_signature_frequency():
    strength = 0.9
    triples = C.generate_synthetic(4, 300, strength, seed=7)
    sig_tokens = {f"user{k}": {f"sig{k}_{j}" for j in range(2)} for k in range(4)}
    hits = sum(1 for t in triples if sig_tokens[t.user_id] & set(t.reply))
    rate = hits / len(triples)
    assert len(triples) >= 1000
    assert abs(rate - strength) < 0.05


def test_synthetic_signatures_never_leak():
    triples = C.generate_synthetic(5, 100, 0.99, seed=9)
    for t in triples:
        own = int(t.user_id.removeprefix("user"))
        for tok in t.reply:
            if tok.startswith("sig"):
                assert tok.startswith(f"sig{own}_")


def test_synthetic_argument_validation():
    with pytest.raises(CorpusError):
        C.generate_synthetic(1, 10, 0.9, seed=0)
    with pytest.raises(CorpusError):
        C.generate_synthetic(4, 10, 0.4, seed=0)
    with pytest.raises(CorpusError, match="triples_per_user must be >= 1") as e:
        C.generate_synthetic(4, 0, 0.9, seed=0)
    assert e.value.key == "triples_per_user"


def test_a_failed_write_leaves_the_previous_file(tmp_path, tiny_triples):
    """The corpus, vocabulary, user-table and word-vector writers replace
    their file only once complete: each, failing on its last entry, leaves
    the previous file and no temporary file behind."""
    def failing_on_last(table):
        table.names[-1] = None
        return table

    def save_table(path, table):
        table.save(path)

    writers = [
        (C.write_corpus, tiny_triples[:2], tiny_triples + [None]),
        (save_table, Vocabulary.build(tiny_triples[:2]),
         failing_on_last(Vocabulary.build(tiny_triples))),
        (save_table, UserTable.build(["alice"]),
         failing_on_last(UserTable.build(["alice", "bob", "carol"]))),
        (MX.save_word_vectors, {"a": np.ones(2)}, {"a": np.ones(2), "b": [1.0, "x"]}),
    ]
    for i, (write, good, bad) in enumerate(writers):
        path = tmp_path / f"out{i}"
        write(path, good)
        before = path.read_bytes()
        with pytest.raises((AttributeError, TypeError, ValueError)):
            write(path, bad)
        assert path.read_bytes() == before, write.__name__
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"out{i}" for i in range(4)]
