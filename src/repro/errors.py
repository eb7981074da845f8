"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class RegexSyntaxError(ReproError):
    """A regular expression string could not be parsed."""

    def __init__(self, message, pattern, position):
        super().__init__(f"{message} (pattern={pattern!r}, pos={position})")
        self.pattern = pattern
        self.position = position


class RangeBoundError(ReproError):
    """A numeric range bound is malformed or inconsistent (e.g. lo > hi)."""


class JSONParseError(ReproError):
    """Strict JSON parsing failed."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at byte {position})")
        self.position = position


class JSONPathError(ReproError):
    """A JSONPath expression is unsupported or malformed."""


class QueryError(ReproError):
    """A filter-expression query is malformed."""


class WorkerCrashError(ReproError):
    """A resident worker died and the pool's respawn budget ran out.

    Raised by :class:`repro.engine.transport.ResidentWorkerPool` once
    worker deaths exceed ``max_respawns``; every batch drained before
    the crash has already been returned (and its AtomCache delta
    merged), so partial results survive the failure.
    """


class CachePersistenceError(ReproError):
    """A persisted cache artifact is unreadable (truncated/corrupt).

    Raised by :class:`repro.engine.cache_store.CacheStore` when a
    disk-tier log cannot be decoded — a clear, typed signal instead of
    a raw ``EOFError``/``UnpicklingError`` escaping from pickle.
    """


class KernelVerificationError(ReproError):
    """A compiled kernel plan failed static verification.

    Raised when a plan is compiled, by
    :mod:`repro.analysis.kernel_verify`, if the plan is not
    boolean-equivalent to the filter expression it claims to implement
    — a miscompile surfaces as a typed error instead of wrong bits.
    """


class SynthesisError(ReproError):
    """A circuit could not be built or technology-mapped."""


class DesignSpaceError(ReproError):
    """Design-space enumeration or exploration failed."""
