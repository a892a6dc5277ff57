# Train the persona-aware generator on a small synthetic corpus, then
# decode the same query for every user.  After a short run the replies
# drift toward each user's signature vocabulary.

import tempfile

from pagen import corpus as C
from pagen import generation as G
from pagen.model import ModelConfig, load_checkpoint
from pagen.trainer import TrainConfig, train

triples = C.generate_synthetic(num_users=8, triples_per_user=400,
                               signature_strength=0.9, seed=123)
tr, te = C.split(triples, 0.95, seed=0)
vocab = C.Vocabulary.build(tr)
users = C.UserTable.build({t.user_id for t in triples})

config = ModelConfig(variant="PAGENERATOR", vocab_size=len(vocab),
                     num_users=len(users), anneal_batches=3000,
                     gamma1=0.5, gamma2=0.5).toy()

with tempfile.TemporaryDirectory() as out_dir:
    print("training (about half a minute at toy scale)...")
    ckpt, history = train(tr, vocab, users, config,
                          TrainConfig(batch_size=64, epochs=30), seed=0,
                          out_dir=out_dir, log_every=300)
    params, config = load_checkpoint(ckpt)

query = te[0].query
print(f"\nquery: {' '.join(query)}\n")
for uid in users.names:
    u = users.index(uid)
    req = G.GenRequest(query=vocab.encode(query), user_index=u, beam_width=1,
                       max_length=12, z_mode="sample", seed=100 + u)
    hyps = G.generate(req, params, config)
    reply = " ".join(vocab.decode(hyps[0].tokens)) if hyps else "(none)"
    print(f"  {uid:12s} -> {reply}")
