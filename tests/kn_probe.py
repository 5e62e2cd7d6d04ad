"""Single probabilities of a KneserNeyModel, read through the vectorized
scorer that perplexities runs, for tests that check one p(w | context) at a
time against a reference; and the model's id-array input of a dict of
word-tuple grams."""

import numpy as np

from corpusprep.ngram_lm import UNK


def map_word(model, word: str) -> str:
    """*word*, or the unknown token if *model*'s vocabulary lacks it."""
    return word if word in model.vocab_index else UNK


def prob(model, word: str, context) -> float:
    """p(word | context) from ``model._token_probs`` on the context's ids
    and the word's; a context longer than order-1 is truncated.

    Words outside the vocabulary are not mapped to the unknown token here:
    they share the out-of-vocabulary id, which no gram holds. A context
    shorter than order-1 matches no context and gives the unigram value.
    """
    ids = model.vocab_index
    w = ids.get(word, model._oov)
    context = tuple(context)
    k = model.order - 1
    if len(context) < k:
        return model._p1[w].item()
    tok = [ids.get(c, model._oov) for c in context[len(context) - k:]]
    tok.append(w)
    return model._token_probs(np.array(tok, np.int64))[-1].item()


def encode(vocab, top: dict, order: int) -> tuple:
    """The word ids, (n, order) int32, and counts, (n,) int64, of *top*,
    a dict from *order*-word grams of *vocab* to counts: the gram input of
    a KneserNeyModel."""
    ids = {w: i for i, w in enumerate(vocab)}
    grams = np.array([[ids[w] for w in g] for g in top], np.int32)
    return grams.reshape(len(top), order), np.array(list(top.values()), np.int64)
