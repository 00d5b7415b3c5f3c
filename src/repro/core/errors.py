"""Exception hierarchy for the VisualCloud core.

Substrate packages raise stdlib exceptions (``ValueError`` for bad
arguments, ``KeyError`` for missing pieces); the core wraps conditions
that cross component boundaries in these types so applications can catch
database-level failures without also catching programming errors.
"""


class VisualCloudError(Exception):
    """Base class for all VisualCloud database errors."""


class CatalogError(VisualCloudError):
    """A named video does not exist, already exists, or has no such version."""


class SegmentNotFoundError(VisualCloudError):
    """A (window, tile, quality) segment is absent from the store.

    This is the storage boundary's error contract: *any* failure to
    produce a segment's bytes — index miss, deleted file, OS-level read
    error, or validation failure — surfaces as this type (or a subclass),
    never as a raw ``FileNotFoundError``/``OSError``.

    ``repairable`` distinguishes the two very different situations inside
    that contract. An index miss is authoritative — no replica anywhere
    holds the segment, so failover and read-repair must not be attempted.
    But when the *index* has an entry and only the local bytes are
    missing, torn, or corrupt, an intact copy may exist on a peer owner:
    storage sets ``repairable = True`` on the raised instance and the
    serve tier may heal the local copy via peer read-repair before
    answering.
    """

    #: Instance-level override: True when the metadata index references
    #: the segment but the local bytes failed (missing file / bad size /
    #: bad checksum) — i.e. a peer replica may still hold intact bytes.
    repairable = False


class SegmentCorruptError(SegmentNotFoundError):
    """A segment's bytes are present but fail validation (wrong size,
    damaged framing). A subclass of :class:`SegmentNotFoundError` because
    for a reader the effect is the same: the requested bytes cannot be
    served — but resilience layers may report the two differently."""


class TransientSegmentError(VisualCloudError):
    """A segment read failed in a way that is expected to heal (I/O
    hiccup, overloaded backend). Delivery retries these up to a bound; a
    read that keeps failing is escalated to quality degradation."""


class SegmentReadTimeout(TransientSegmentError):
    """A segment read exceeded the backend's latency budget."""


class IngestError(VisualCloudError):
    """A video could not be ingested (bad dimensions, empty source, ...)."""
