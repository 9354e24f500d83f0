"""Exception hierarchy for the embedded storage engine."""


class DatabaseError(Exception):
    """Base class for all storage-engine errors."""


class SchemaError(DatabaseError):
    """A row or value does not conform to a relation's schema."""


class PageFullError(DatabaseError):
    """A record does not fit into the target page."""


class RecordNotFoundError(DatabaseError):
    """A record id or key does not resolve to a stored record."""


class DuplicateKeyError(DatabaseError):
    """A unique index rejected an insert with an existing key."""


class RelationError(DatabaseError):
    """Catalog-level problem: unknown or duplicate relation, bad index."""


class SortOrderError(DatabaseError, ValueError):
    """Rows arrived out of the sort order an operation requires.

    Raised by order-dependent operations (B+-tree bulk load, sorted-input
    aggregation) when their input breaks the ordering contract.  Also a
    ``ValueError`` because out-of-order input is a caller bug, not a
    storage failure — callers that validate arguments keep working.
    """


class BufferPoolError(DatabaseError):
    """The buffer pool could not satisfy a pin request."""


class TransientIOError(DatabaseError):
    """A storage operation failed in a way that may succeed on retry.

    Raised by flaky storage backends (and the test fault injector); the
    buffer pool's retry policy absorbs these up to its attempt budget.
    """


class RetryExhaustedError(BufferPoolError):
    """A transient fault persisted through every configured retry."""

    def __init__(self, message: str, page_no: int | None = None) -> None:
        super().__init__(message)
        self.page_no = page_no


class WalError(DatabaseError):
    """The write-ahead log is structurally unusable or misused.

    Raised for a damaged log header, a generation that matches neither
    the snapshot manifest nor its predecessor, or protocol misuse
    (nested explicit transactions, checkpointing mid-transaction).  A
    *torn tail* is never an error — recovery truncates it silently.
    """


class CrashError(DatabaseError):
    """A simulated process death from the crash-point test harness.

    Deliberately not a :class:`TransientIOError`: retries must not absorb
    a crash, exactly as a real process death cannot be retried away.
    """


class PageCorruptionError(DatabaseError):
    """A page's bytes do not match its recorded CRC32 checksum.

    Corruption is never retried away silently: the pool re-reads once to
    rule out a transient bus/bit error, then fails loudly with the page
    number so the operator knows exactly what is damaged.
    """

    def __init__(self, message: str, page_no: int | None = None) -> None:
        super().__init__(message)
        self.page_no = page_no


class WarehouseConfigError(DatabaseError):
    """A warehouse was opened with a config it was not built with: its ETI
    cannot answer queries signed under the ``given`` value of ``field``."""

    def __init__(self, field: str, stored: object, given: object) -> None:
        super().__init__(
            f"warehouse built with {field}={stored!r}, not {field}={given!r}; "
            f"open it with {field}={stored!r} or rebuild it"
        )
        self.field = field
