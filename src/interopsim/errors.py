"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class InvalidConfig(SimError):
    pass


class DuplicateContract(SimError):
    pass


class UnknownContract(SimError):
    pass


class DuplicateNonce(SimError):
    pass


class QuorumFailure(SimError):
    pass


class FutureHeight(SimError):
    pass


class InvalidRange(SimError):
    pass


class EncodingError(SimError):
    pass


class ParseError(SimError):
    """Policy source rejected; carries the failure position."""

    def __init__(self, line: int, column: int, expected: str, found: str = ""):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        where = f"line {line}, column {column}"
        msg = f"expected {expected} at {where}"
        if found:
            msg += f", found {found!r}"
        super().__init__(msg)


class TypeMismatch(SimError):
    pass


class PolicyDenied(SimError):
    def __init__(self, reason: str = ""):
        self.reason = reason
        super().__init__(reason or "access denied")


class StaleQuorum(SimError):
    pass


class ProofInvalid(SimError):
    pass


class LockConflict(SimError):
    pass


class LockTimeout(SimError):
    pass


class InvalidState(SimError):
    pass


class TxnAborted(SimError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class NotOwner(SimError):
    pass


class AlreadyEscrowed(SimError):
    pass


class InsufficientFunds(SimError):
    pass


class ConfigError(SimError):
    pass


class MaxTicksExceeded(SimError):
    pass


class CorruptLog(SimError):
    pass
