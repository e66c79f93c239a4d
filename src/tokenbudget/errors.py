"""Exception types shared across the harness."""


class HarnessError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HarnessError):
    """Invalid or incomplete configuration (missing pricing, bad backend section, ...)."""


class DatasetError(HarnessError):
    """A dataset or fixture file failed to parse or violates its schema."""


class EncodingError(DatasetError):
    """An input file is not UTF-8 text; the message names the file and the
    line, and the command line adds the flag that named the file."""


class TransportError(HarnessError):
    """Network-level failure that survived the bounded retry policy."""


class RateLimitError(TransportError):
    """HTTP 429 persisted through every retry attempt."""


class ProtocolError(HarnessError):
    """The provider answered, but the payload is not a usable completion."""
