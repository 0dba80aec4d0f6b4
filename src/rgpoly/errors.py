"""Exception types shared across the package."""


class RgpolyError(Exception):
    """Base class for all errors raised by rgpoly."""


class NonMonomialNegativePower(RgpolyError):
    """Substitution of a multi-term value into a negative or fractional power."""


class SizeLimit(RgpolyError):
    """Input exceeds the configured enumeration cap."""


class MalformedPresentation(RgpolyError):
    """Arrow presentation whose labels do not occur exactly twice."""


class MalformedCode(RgpolyError):
    """Gauss code with bad label counts or O/U pairing."""


class MalformedDiagram(RgpolyError):
    """Link diagram violating the degree-4 requirement."""


class MissingOrientation(RgpolyError):
    """Writhe requested on a diagram without component orientations."""


class GenusError(RgpolyError):
    """Rotation system that is not genus 0; message names the Euler deficit."""


class ParseError(RgpolyError):
    """Malformed input text; message carries the position."""


class RenderError(RgpolyError):
    """Polynomial whose text form cannot be produced, such as a coefficient
    past the interpreter's limit on integer-to-string conversion."""
