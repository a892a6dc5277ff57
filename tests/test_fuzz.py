"""Property tests for the readers of outside input: config lines, corpus
files, vocabulary and user tables, checkpoints and word vectors.  Each
input either parses, and then round-trips through the matching writer, or
raises the reader's own error naming the source; no bare codec, numpy or
struct error gets through."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_config
from pagen import cli
from pagen import corpus as C
from pagen import metrics as MX
from pagen import model as M
from pagen.trainer import TrainConfig

# derandomized: the same examples on every run, none stored on disk
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
FIELDS = {**M.ModelConfig.__dataclass_fields__, **TrainConfig.__dataclass_fields__}

value = st.one_of(st.text(max_size=8), st.integers().map(str), st.floats().map(repr),
                  st.sampled_from(["true", "false", "PAGENERATOR", "S2SA", " 3 ", "1e400"]))
config_line = st.one_of(
    st.text(max_size=16),
    st.tuples(st.one_of(st.sampled_from(sorted(FIELDS)), st.text(max_size=6)),
              st.sampled_from(["=", " = ", "", "=="]), value).map("".join))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def cut_or_flip(blob):
    """A prefix of a valid file, or the file with a few bytes replaced."""
    n = len(blob)
    prefix = st.integers(0, n).map(lambda i: blob[:i])
    flips = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)), min_size=1,
                     max_size=3)
    return st.one_of(prefix, flips.map(lambda fs: _flipped(blob, fs)))


def _flipped(blob, flips):
    out = bytearray(blob)
    for i, b in flips:
        out[i] = b
    return bytes(out)


@FUZZ
@given(st.lists(config_line, max_size=6))
def test_config_lines_parse_and_round_trip_or_name_the_line(lines):
    try:
        (kwargs,), where = M.parse_config_lines(lines, "fuzz.cfg", M.ModelConfig)
        config = M.checked(M.ModelConfig, kwargs, where)
    except ValueError as e:
        assert re.match(r"fuzz\.cfg:\d+: ", str(e)), e
        return
    assert kwargs.keys() <= M.ModelConfig.__dataclass_fields__.keys()
    text = config.to_text()
    assert M.ModelConfig.from_text(text).to_text() == text


def _valid_config_file():
    return (M.ModelConfig().to_text() + "epochs=3\nlr=0.002\n# a comment\n").encode()


@FUZZ
@given(st.one_of(st.binary(max_size=120), cut_or_flip(_valid_config_file())))
def test_config_file_parses_or_names_the_file(scratch, blob):
    path = scratch / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        cli.read_flat_config(str(path))
    except ValueError as e:
        assert re.match(re.escape(str(path)) + r":\d+: ", str(e)), e


@FUZZ
@given(st.text(max_size=30))
def test_parse_line_parses_or_names_the_line(line):
    try:
        t = C.parse_line(line, 7)
    except C.CorpusError as e:
        assert str(e).startswith("line 7: ")
        return
    assert t.user_id and t.query and t.reply


def _valid_corpus_file():
    triples = C.generate_synthetic(2, 3, 0.9, seed=0)
    triples.append(C.DialogueTriple("zoë", ["café", "naïve"], ["ünïcode", "ok"]))
    return "".join(f"{t.user_id}\t{' '.join(t.query)}\t{' '.join(t.reply)}\n"
                   for t in triples).encode()


@FUZZ
@given(st.one_of(st.binary(max_size=120), cut_or_flip(_valid_corpus_file())))
def test_corpus_file_round_trips_or_names_the_file(scratch, blob):
    path, again = scratch / "fuzz.tsv", scratch / "again.tsv"
    path.write_bytes(blob)
    try:
        triples = C.read_triples(path)
    except C.CorpusError as e:
        assert str(path) in str(e), e
        return
    C.write_corpus(again, triples)
    assert C.read_triples(again) == triples


name_line = st.one_of(st.sampled_from(C.RESERVED + [C.UNSPECIFIED_USER_ID, "", "a", "a\r"]),
                      st.text(max_size=5))


@pytest.mark.parametrize("table", [C.Vocabulary, C.UserTable])
@FUZZ
@given(data=st.data())
def test_name_table_round_trips_or_names_the_line(scratch, table, data):
    valid = "\n".join(table.RESERVED + ["zoë", "a"]).encode()
    blob = data.draw(st.one_of(
        st.binary(max_size=40), cut_or_flip(valid),
        st.lists(name_line, max_size=8).map(lambda ls: "\n".join(ls).encode())))
    path, again = scratch / "fuzz.txt", scratch / "again.txt"
    path.write_bytes(blob)
    try:
        names = table.load(path)
    except C.CorpusError as e:
        assert re.match(re.escape(str(path)) + r"(:\d+|: end of file): ", str(e)), e
        return
    assert names.names[:len(table.RESERVED)] == table.RESERVED
    assert [names.ids[n] for n in names.names] == list(range(len(names)))
    names.save(again)
    assert table.load(again).names == names.names


@pytest.fixture(scope="module")
def checkpoint(scratch):
    path = scratch / "valid.ckpt"
    config = toy_config(vocab_size=12, decoder_hidden=3, bow_hidden=2)
    M.save_checkpoint(path, M.init_params(config, seed=0), config)
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_checkpoint_round_trips_or_names_the_file(scratch, checkpoint, data):
    blob = data.draw(st.one_of(st.binary(max_size=64), cut_or_flip(checkpoint)))
    path, again = scratch / "fuzz.ckpt", scratch / "again.ckpt"
    path.write_bytes(blob)
    try:
        params, config = M.load_checkpoint(path)
    except ValueError as e:
        assert str(path) in str(e), e
        return
    M.save_checkpoint(again, params, config)
    assert again.read_bytes() == blob


@pytest.fixture(scope="module")
def vector_file(scratch):
    path = scratch / "valid.vec"
    MX.save_word_vectors(path, {"a": np.array([0.5, -1.0, 2.0]), "zoë": np.array([1e-3, 3.0, 0.0]),
                                "café": np.array([-0.25, 1e20, 7.0])})
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_word_vectors_round_trip_or_name_the_file(scratch, vector_file, data):
    blob = data.draw(st.one_of(st.binary(max_size=80), cut_or_flip(vector_file)))
    path, again = scratch / "fuzz.vec", scratch / "again.vec"
    path.write_bytes(blob)
    try:
        vectors = MX.load_word_vectors(path)
    except ValueError as e:
        assert re.match(re.escape(str(path)) + r":\d+: ", str(e)), e
        return
    MX.save_word_vectors(again, vectors)
    back = MX.load_word_vectors(again)
    assert back.keys() == vectors.keys()
    assert all(np.array_equal(back[k], v, equal_nan=True) for k, v in vectors.items())
