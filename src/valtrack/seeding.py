"""Deterministic per-task seed derivation.

The mixing function is part of the external reproducibility contract: a task
seed is obtained by folding each task index into the master seed with one
splitmix64 round,

    seed = master & M
    for each index i:  seed = splitmix64(seed XOR (i & M))

with M = 2^64 - 1 and splitmix64 the finalizer of Steele et al. (the usual
constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB).
Streams are reproducible across processes and worker counts; matching them
from another implementation additionally requires the same RNG algorithm,
which is recorded in every output sidecar (numpy PCG64).

A run's engine seed, the seed of its random traders' stream, is an int in
[0, 2^64), as every mix_seed output is, and not a bool; `engine.run`,
`engine.crash_step` and `summaries.run_summaries` raise InvalidInputError
on any other seed of a start with a random trader (one without draws
nothing and never reads its seed). The stream is numpy's PCG64 of that
seed: `generator` builds it in Python, and the compiled loop seeds it
itself from the same seed as it starts each run, with numpy's
SeedSequence and PCG64 seeding written out in C (`_crashloop.c`'s
seeded_stream). So rng_info describes every stream.
"""

import functools
import sys

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 scramble of a 64-bit word."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(master_seed: int, *indices: int) -> int:
    """Derive a 64-bit task seed from the master seed and task indices."""
    x = master_seed & _MASK64
    for idx in indices:
        x = splitmix64(x ^ (idx & _MASK64))
    return x


def generator(seed: int) -> "np.random.Generator":
    """The PCG64 generator of a seed. numpy is imported here, not at the
    top, so a command that draws nothing never loads it."""
    import numpy as np
    return np.random.Generator(np.random.PCG64(seed))


def rng_for(master_seed: int, *indices: int) -> "np.random.Generator":
    """generator(mix_seed(master_seed, *indices))."""
    return generator(mix_seed(master_seed, *indices))


def rng_info() -> dict:
    """RNG algorithm identification for output sidecars.

    library_version is numpy.__version__ once numpy is loaded, and before
    that the installed numpy distribution's version, which is the same
    string; so a command that draws no random number writes its sidecars
    without importing numpy."""
    numpy = sys.modules.get("numpy")
    return {
        "algorithm": "PCG64",
        "library": "numpy",
        "library_version": numpy.__version__ if numpy else _installed_numpy_version(),
        "seed_mixer": "splitmix64-fold-v1",
    }


@functools.cache
def _installed_numpy_version() -> str:
    """The installed numpy distribution's version, looked up once per
    process because each lookup reads and parses its metadata file."""
    from importlib.metadata import version
    return version("numpy")
