"""A fixed piece of pure-Python work whose time tracks the host's speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x over minutes, for every process alike. ``run.py`` times ``SAMPLES``
samples of this work before each repeat and after the last, while no repeat
runs, and scales each repeat's time by ``(REF_S / m) ** SENSITIVITY``, m
the median of the samples just before and just after it: the metrics read
as seconds on a host where one sample takes ``REF_S``. The work mixes what
the pipeline spends its time on: n-gram lookups in a small, cache-resident
table (like scoring and tokenizing), lookups in a table too large for the
caches (like the LM's higher orders), string splitting and JSON parsing. It belongs to the
benchmark, not the program, so a change to the program does not move it.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter

import workloads

REF_S = 0.05  # about one sample's time on a 2-vCPU x86 VM in a fast phase
SAMPLES = 4  # per repeat
# When the host slows, a sample slows by more than a pipeline run does: over
# sixteen sets of 5-10 seeds of the three workloads, the scaled wall_s spread
# 4-15% between quartiles with this exponent, 5-18% with 1 (full scaling)
# and 7-22% unscaled.
SENSITIVITY = 0.5


class HostSpeed:
    def __init__(self):
        lang = workloads.Language()
        rng = random.Random(11)
        sentences = [lang.sentence(rng) for _ in range(5000)]
        small = Counter()
        for s in sentences:
            w = s.split()
            for i in range(len(w) - 2):
                small[(w[i], w[i + 1], w[i + 2])] += 1
        self.small = dict(small)
        self.lines = [json.dumps({"text": s}, ensure_ascii=False) for s in sentences]
        self.large = {
            (rng.choice(lang.words), rng.choice(lang.words), rng.random()): i
            for i in range(200_000)
        }
        keys = list(self.large)
        self.probes = [keys[rng.randrange(len(keys))] for _ in range(40_000)]

    def sample(self) -> float:
        """Seconds taken by one fixed unit of work."""
        t = time.perf_counter()
        small, large = self.small, self.large
        hits = 0
        for line in self.lines:
            w = json.loads(line)["text"].lower().split()
            for i in range(len(w) - 2):
                hits += small.get((w[i], w[i + 1], w[i + 2]), 0)
        for key in self.probes:
            hits += large.get(key, 0) > 0
        if hits <= 0:
            raise RuntimeError("host-speed sample found no n-grams")
        return time.perf_counter() - t
