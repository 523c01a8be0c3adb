"""Exception hierarchy shared by all missdag modules, and the parser of the
JSON documents they read from users."""

import contextlib
import json
import numbers


class MissDagError(Exception):
    """Base class for all missdag errors: the data or the run failed. The
    command line exits with code 1."""


class ConfigError(MissDagError):
    """Malformed user input: a config, knowledge, amputation-spec, graph or
    parameter document, a search option, a run setting (algorithm list,
    replicate count, fraction, threshold, sample size), a seed or an output
    path; also a knowledge document whose edges contradict each other, a
    d-separation query whose sets overlap and a search's initial graph that
    breaks the knowledge. Raised by the function that uses the value. The
    command line exits with code 2."""


class CycleDetected(MissDagError):
    """Edges that close a directed cycle; ``cycle`` is the closed walk. The
    message quotes each name, so a name holding a line break stays on the
    message's one line."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cycle detected: " + " -> ".join(map(repr, self.cycle)))


class SchemaMismatch(MissDagError):
    """Inputs that do not fit each other or the operation asked of them: a
    schema, dataset, graph, m-graph or parameter set that does not fit the
    others (bad states, an unknown or duplicate name or edge, a missing or
    misshaped CPT), data too small or too incomplete for the operation (no
    rows, an unobserved column, missing cells where none may be), or a
    result that is not a finite number (a log-likelihood of a row the fit
    gives probability 0, a score that overflows), which no artifact can
    hold."""


class MalformedCsv(MissDagError):
    """A dataset CSV that cannot be read: not UTF-8, empty, ragged, a
    header that names a column twice, or a column with more states than a
    cell can hold."""


class TooManyMissingInRow(MissDagError):
    """A completion block of more than ``ENUMERATION_CAP`` rows."""


def json_document(text: str, what: str):
    """Parse a JSON document of any type."""
    try:
        doc = json.loads(text)
        # an escape such as \ud800 reads as a lone surrogate, a string that
        # no output file or stream can encode
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    except UnicodeEncodeError as exc:
        raise ConfigError(f"{what} holds a string that is not Unicode text: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{what} is nested too deeply") from None
    return doc


def json_text(doc) -> str:
    """The text of a JSON artifact. NaN and infinities are not JSON: a
    document holding one raises SchemaMismatch instead of writing a file
    that strict parsers refuse."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SchemaMismatch(f"an artifact holds a number JSON cannot hold: {exc}") from None


def json_object(text: str, what: str, keys) -> dict:
    """Parse a JSON document that must be an object whose keys are all among
    ``keys`` (``checked_keys``)."""
    return checked_keys(json_document(text, what), keys, what)


@contextlib.contextmanager
def reading(what: str):
    """Read the fields of the document ``what``: a field it lacks
    (``KeyError``) or one of the wrong shape or type raises ConfigError
    naming the document. A MissDagError passes through."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what} lacks field {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what} is malformed: {exc}") from exc


def checked_keys(doc, keys, what: str) -> dict:
    """``doc`` if it is a JSON object whose keys are all among ``keys``. A
    key nothing reads (a misspelt one, say) is refused, not dropped unseen."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"{what} has keys it does not read: {unknown}; "
                          f"it reads {sorted(keys)}")
    return doc


def checked_number(value, kind, what: str, rule: str = "", ok=None):
    """``value`` as ``kind``: an int field takes a non-bool integer, a float
    field a non-bool int or float (converted with ``kind``). Nothing else is
    coerced: ``1.9`` is not an int and ``"0.5"`` is not a float. A converted
    value that ``ok`` rejects (a NaN, say, which fails every comparison)
    raises ``{what} must {rule}, got {value!r}``."""
    accepted = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")
    value = kind(value)
    if ok is not None and not ok(value):
        raise ConfigError(f"{what} must {rule}, got {value!r}")
    return value


def checked_strings(value, what: str) -> list:
    """``value`` if it is a JSON list of strings. A string is not taken for
    a list: Python would read ``"ab"`` as ``["a", "b"]``."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{what} must be a list of strings, got {value!r}")
    return value
