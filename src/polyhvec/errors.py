"""Exception types shared across the package."""


class ExprParseError(ValueError):
    """An input expression failed to tokenize or parse."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class FaceCountLimitError(RuntimeError):
    """Work would exceed a resource cap: face count or change-of-basis degree."""


class NotInCDSpanError(ValueError):
    """A flag vector admits no exact expansion over CD-word flag vectors."""


class NotPalindromicError(ValueError):
    """A polynomial that must be palindromic is not; signals an upstream bug."""
