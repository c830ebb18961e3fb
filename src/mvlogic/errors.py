"""Exception hierarchy shared by the whole package."""


class MvlogicError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(MvlogicError):
    pass


class InvalidNegationError(MvlogicError):
    pass


class NotAnMVChainError(MvlogicError):
    pass


class UnsupportedChainError(MvlogicError):
    """Raised when an operation needs a finite carrier but got a rational family."""


class ChainLawError(MvlogicError):
    """A chain file failed validation on load; names the law and a witness."""


class FormatError(MvlogicError):
    """Malformed chain / model / certificate file."""


class ParseError(MvlogicError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SignatureError(MvlogicError):
    pass


class EvaluationError(MvlogicError):
    pass


class GroundingError(MvlogicError):
    pass


class TranslationError(MvlogicError):
    pass


class CapExceededError(MvlogicError):
    pass


class CertificateError(MvlogicError):
    pass
