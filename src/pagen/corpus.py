"""Dialogue corpus loading, vocabulary building, and synthetic persona data.

Corpus file format: UTF-8, LF line endings, one example per line with
exactly two TAB separators:

    user_id <TAB> query tokens <TAB> reply tokens

Tokens are whitespace-delimited; tokenization happens upstream.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED = ["<pad>", "<unk>", "<bos>", "<eos>"]

UNSPECIFIED_USER = 0
UNSPECIFIED_USER_ID = "<unk_user>"


class CorpusError(ValueError):
    """Bad corpus input; key names the argument at fault, if one is."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


@dataclass
class DialogueTriple:
    user_id: str
    query: list
    reply: list

    def __post_init__(self):
        if not self.user_id:
            raise CorpusError("empty user_id")
        if not self.query or not self.reply:
            raise CorpusError("query and reply must be nonempty")


class NameTable:
    """Names in index order: row i of an embedding belongs to names[i], and
    ids maps each name back to i.  The class's RESERVED names come first and
    each name appears once; an entry that breaks either rule raises
    CorpusError naming its place, where(i)."""

    RESERVED = []

    def __init__(self, names=None, where=lambda i: f"index {i}"):
        self.names = list(self.RESERVED if names is None else names)
        k = len(os.path.commonprefix([self.names, self.RESERVED]))  # reserved names in place
        if k < len(self.RESERVED):
            raise CorpusError(f"{where(k)}: expected reserved name {self.RESERVED[k]!r}")
        self.ids = {}
        for i, name in enumerate(self.names):
            if self.ids.setdefault(name, i) != i:
                raise CorpusError(f"{where(i)}: {name!r} repeats {where(self.ids[name])}")

    def __len__(self):
        return len(self.names)

    def save(self, path):
        with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(name + "\n" for name in self.names)

    @classmethod
    def load(cls, path):
        """The table in a one-name-per-line file; blank lines are skipped."""
        kept = [(n, s) for n, s in enumerate((line.rstrip("\r\n") for line in read_lines(path)),
                                             start=1) if s]
        return cls([s for _, s in kept], lambda i: f"{path}:{kept[i][0]}" if i < len(kept)
                   else f"{path}: end of file")


class Vocabulary(NameTable):
    RESERVED = RESERVED

    def index(self, token):
        return self.ids.get(token, UNK)

    def encode(self, tokens):
        return [self.ids.get(t, UNK) for t in tokens]

    def decode(self, indices):
        return [self.names[i] if 0 <= i < len(self.names) else self.names[UNK]
                for i in indices]

    @classmethod
    def build(cls, triples, max_size=20000):
        """Frequency-ranked vocabulary over queries and replies, top max_size
        non-reserved tokens, ties broken lexicographically for determinism; a
        token spelled like a reserved name keeps that name's reserved index."""
        counts = Counter(tok for t in triples for tok in t.query + t.reply)
        for tok in cls.RESERVED:
            del counts[tok]  # a Counter ignores a missing key
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
        return cls(cls.RESERVED + [tok for tok, _ in ranked])


class UserTable(NameTable):
    RESERVED = [UNSPECIFIED_USER_ID]

    def index(self, user_id, where=""):
        """Row of a user id; an id not in the table raises CorpusError."""
        if user_id not in self.ids:
            raise CorpusError(f"{where}unknown user {user_id!r}")
        return self.ids[user_id]

    @classmethod
    def build(cls, user_ids):
        return cls(cls.RESERVED + sorted(set(user_ids) - {UNSPECIFIED_USER_ID}))


def parse_line(line, lineno):
    """One corpus line as a triple; its tokens are interned, so a corpus
    holds one str per distinct token."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise CorpusError(f"line {lineno}: expected 3 TAB-separated fields, got {len(parts)}")
    user_id, query, reply = parts
    q_toks, r_toks = query.split(), reply.split()
    if not user_id or not q_toks or not r_toks:
        raise CorpusError(f"line {lineno}: empty field")
    return DialogueTriple(user_id=user_id, query=list(map(sys.intern, q_toks)),
                          reply=list(map(sys.intern, r_toks)))


def read_lines(path):
    """The LF-terminated lines of a UTF-8 text file, decoded one by one; a
    line that is not UTF-8 raises CorpusError naming "path:line"."""
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise CorpusError(f"{path}:{lineno}: not UTF-8: {e}") from None


def read_triples(path):
    triples = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            triples.append(parse_line(line, lineno))
        except CorpusError as e:
            raise CorpusError(f"{path}: {e}") from None
    if not triples:
        raise CorpusError(f"empty corpus: {path}")
    return triples


def load_corpus(path, min_utterances=1):
    """Load triples; users with fewer than min_utterances replies are
    remapped to the unspecified user and excluded from per-user evaluation.
    Returns the triples only (build the vocabulary from the train split)."""
    triples = read_triples(path)
    counts = {}
    for t in triples:
        counts[t.user_id] = counts.get(t.user_id, 0) + 1
    kept_users = {u for u, c in counts.items() if c >= min_utterances}
    return [
        t if t.user_id in kept_users
        else DialogueTriple(UNSPECIFIED_USER_ID, t.query, t.reply)
        for t in triples
    ]


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """open(path, mode) for writing, through a temporary file in the same
    directory that replaces path only after the last write: a writer that
    fails midway leaves the previous file, and no temporary file, behind."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_corpus(path, triples):
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        for t in triples:
            f.write(f"{t.user_id}\t{' '.join(t.query)}\t{' '.join(t.reply)}\n")


def split(triples, train_ratio, seed=0):
    """Per-user stratified split so every evaluated user appears in train.

    Each user keeps at least one training example; shuffling within a user
    is seeded and deterministic.
    """
    if not (0.0 < train_ratio < 1.0):
        raise CorpusError(f"train_ratio must be in (0, 1), got {train_ratio}")
    rng = np.random.default_rng(seed)
    by_user = {}
    for t in triples:
        by_user.setdefault(t.user_id, []).append(t)
    train, test = [], []
    for user in sorted(by_user):
        items = by_user[user]
        order = rng.permutation(len(items))
        n_train = max(1, int(round(len(items) * train_ratio)))
        for pos, j in enumerate(order):
            (train if pos < n_train else test).append(items[j])
    return train, test


def generate_synthetic(num_users, triples_per_user, signature_strength, seed):
    """Deterministic synthetic persona corpus.

    Each user owns a disjoint set of signature tokens and a user-specific
    unigram preference over a shared reply pool.  A reply contains one of
    the user's signature tokens with probability signature_strength; a
    signature token never appears in another user's reply.  Queries carry a
    topic token which the reply echoes half the time, giving the encoder
    something to condition on.
    """
    if num_users < 2:
        raise CorpusError(f"num_users must be >= 2, got {num_users}", "num_users")
    if triples_per_user < 1:
        raise CorpusError(f"triples_per_user must be >= 1, got {triples_per_user}",
                          "triples_per_user")
    if not (0.5 < signature_strength < 1.0):
        raise CorpusError(f"signature_strength must be in (0.5, 1), got {signature_strength}",
                          "signature_strength")
    rng = np.random.default_rng(seed)
    signature_size, topic_count, query_fillers, reply_pool = 2, 6, 12, 24

    topics = [f"topic{i}" for i in range(topic_count)]
    fillers = [f"q{i}" for i in range(query_fillers)]
    pool = [f"w{i}" for i in range(reply_pool)]
    signatures = {
        k: [f"sig{k}_{j}" for j in range(signature_size)]
        for k in range(num_users)
    }
    # each user's unigram preference over the shared pool, as the CDF that
    # Generator.choice(p=...) rebuilds on every call: built once here, it
    # turns the same uniform draws into the same words
    cdfs = [rng.dirichlet(np.full(reply_pool, 0.5)).cumsum() for _ in range(num_users)]
    for cdf in cdfs:
        cdf /= cdf[-1]

    triples = []
    for k, cdf in enumerate(cdfs):
        uid = f"user{k}"
        for _ in range(triples_per_user):
            topic = topics[rng.integers(topic_count)]
            q_len = int(rng.integers(2, 5))
            query = [topic] + [fillers[rng.integers(query_fillers)] for _ in range(q_len)]
            r_len = int(rng.integers(3, 7))
            reply = [pool[i] for i in cdf.searchsorted(rng.random(r_len), side="right").tolist()]
            if rng.random() < 0.5:
                reply[rng.integers(r_len)] = topic
            if rng.random() < signature_strength:
                sig = signatures[k][rng.integers(signature_size)]
                reply[rng.integers(r_len)] = sig
            triples.append(DialogueTriple(uid, query, reply))
    return triples
