"""Exception types shared across the package."""


class PencilabError(Exception):
    """Base class for all errors raised by pencilab."""


class UnsupportedShapeError(PencilabError):
    """Newton polygon has a shape we do not handle (e.g. vertical last side)."""


class OutOfRangeError(PencilabError):
    """A shift or integral parameter lies outside its admissible range."""


class PencilFormatError(PencilabError):
    """Malformed pencil description (JSON schema or internal consistency)."""


class EllipticityError(PencilabError):
    """An ellipticity assumption needed by the requested computation fails."""


class BandError(PencilabError):
    """A computed value escapes the two-sided band a lemma guarantees."""


class Float64RangeError(OutOfRangeError, FloatingPointError):
    """A computed value leaves the normal float64 range.  As a
    FloatingPointError, a verify suite reports it as its float64 arithmetic
    failing on the suite's range."""
