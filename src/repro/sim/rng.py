"""Named, seeded random-number streams.

Every stochastic component in the reproduction (channel fades, shadowing,
relay coin flips, trace generation, ...) draws from its own named stream.
Streams are derived deterministically from a root seed and a string name,
so an experiment is reproducible bit-for-bit given its seed, and adding a
new consumer of randomness does not perturb existing streams.
"""

import hashlib

import numpy as np

__all__ = ["BufferedUniforms", "RngRegistry", "derive_seed"]


def derive_seed(root_seed, name):
    """Derive a child seed from *root_seed* and a string *name*.

    The derivation hashes the pair with SHA-256, so it is stable across
    Python versions and processes (unlike the builtin ``hash``).

    Args:
        root_seed: integer root seed of the experiment.
        name: stream name, e.g. ``"channel/bs3/vehicle"``.

    Returns:
        A non-negative integer suitable for :class:`numpy.random.SeedSequence`.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class BufferedUniforms:
    """Serve uniform [0, 1) draws from pre-drawn numpy blocks.

    A scalar ``Generator.random()`` call costs roughly a microsecond of
    numpy dispatch overhead; drawing a block and serving from it
    amortizes that across ``block`` draws.  For numpy's bit generators
    ``rng.random(n)`` consumes exactly the same underlying stream as
    ``n`` scalar calls, so buffering is bit-for-bit transparent —
    *provided the wrapped generator has no other consumers*.  When the
    generator is shared, buffering reorders draws relative to the
    unbuffered interleaving: still a valid i.i.d. uniform sequence,
    but not the identical one (see
    :func:`~repro.net.channel.steered_losses`).

    Args:
        rng: the :class:`numpy.random.Generator` to draw from.
        block: draws per refill; 1 disables buffering.
    """

    __slots__ = ("rng", "block", "_buf", "_i")

    def __init__(self, rng, block=64):
        self.rng = rng
        self.block = max(int(block), 1)
        self._buf = ()
        self._i = 0

    def next(self):
        """The next uniform draw as a python float."""
        i = self._i
        if i >= len(self._buf):
            # tolist() converts to python floats once per block, so the
            # hot path never pays numpy scalar boxing.
            self._buf = self.rng.random(self.block).tolist()
            i = 0
        self._i = i + 1
        return self._buf[i]


class RngRegistry:
    """Factory for deterministic, independent RNG streams.

    Example::

        rngs = RngRegistry(seed=7)
        fade = rngs.stream("channel", "bs1", "vehicle")
        coin = rngs.stream("relay", "bs2")

    The same ``(seed, names)`` pair always yields a generator producing
    the same sequence; distinct names yield independent streams.
    """

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._streams = {}

    def stream(self, *names):
        """Return the :class:`numpy.random.Generator` for a named stream.

        Repeated calls with the same names return the *same* generator
        object, so consumers share a stream's state when they share its
        name.
        """
        key = "/".join(str(n) for n in names)
        if key not in self._streams:
            child = np.random.SeedSequence(derive_seed(self.seed, key))
            self._streams[key] = np.random.default_rng(child)
        return self._streams[key]

    def fresh(self, *names):
        """Return a *new* generator for the named stream.

        Unlike :meth:`stream`, the generator is not cached: two calls
        return independent generator objects seeded identically.  Useful
        for replaying a stochastic process from its start.
        """
        key = "/".join(str(n) for n in names)
        child = np.random.SeedSequence(derive_seed(self.seed, key))
        return np.random.default_rng(child)

    def spawn(self, *names):
        """Return a child registry whose root is scoped by *names*.

        ``registry.spawn("trial", 3).stream("x")`` is the same stream as
        ``registry.stream("trial", 3, "x")`` in spirit but lets a
        component own a private namespace without threading prefixes.
        """
        key = "/".join(str(n) for n in names)
        return RngRegistry(derive_seed(self.seed, key))
