"""Exception types shared across the engine."""


class QuantAlgError(Exception):
    """Base class for engine errors."""


class ParseError(QuantAlgError):
    """Malformed input text; carries the offending source location."""

    def __init__(self, message: str, source: str = "<input>", line: int = 0):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}" if line else f"{source}: {message}")


class DomainError(QuantAlgError):
    """Well-formed input that violates a semantic precondition."""


class UnsupportedShape(DomainError):
    """Theory expression outside the layered grammar the engine can normalize."""

