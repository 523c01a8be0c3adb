"""Exception hierarchy shared by all missdag modules, and the parser of the
JSON documents they read from users."""

import json
import numbers


class MissDagError(Exception):
    """Base class for all missdag errors."""


class ConfigError(MissDagError):
    """Malformed user input: a config, knowledge, amputation-spec, graph or
    parameter document, a search option, a run setting (algorithm list,
    replicate count, fraction, threshold, sample size), a seed or an output
    path. Raised by the function that uses the value. The command line
    exits with code 2."""


def json_object(text: str, what: str) -> dict:
    """Parse a JSON document that must be an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return doc


def checked_number(value, kind, what: str):
    """``value`` as ``kind``: an int field takes a non-bool integer, a float
    field a non-bool int or float (converted with ``kind``). Nothing else is
    coerced: ``1.9`` is not an int and ``"0.5"`` is not a float."""
    accepted = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")
    return kind(value)


def checked_strings(value, what: str) -> list:
    """``value`` if it is a JSON list of strings. A string is not taken for
    a list: Python would read ``"ab"`` as ``["a", "b"]``."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{what} must be a list of strings, got {value!r}")
    return value


# --- graphs ---

class CycleDetected(MissDagError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cycle detected: " + " -> ".join(self.cycle))


class UnknownVertex(MissDagError):
    pass


class DuplicateEdge(MissDagError):
    pass


class OverlappingSets(ConfigError):
    pass


class InvalidMGraph(MissDagError):
    pass


# --- data ---

class SchemaMismatch(MissDagError):
    """A schema, dataset, graph or parameter set that does not fit the
    others: too few or duplicate states, a state index out of range, an
    unknown or duplicate variable name, a missing or misshaped CPT."""


class MalformedCsv(MissDagError):
    pass


class DriverMissing(MissDagError):
    pass


class AllMissingColumn(MissDagError):
    pass


class EmptyDataset(MissDagError):
    pass


class BadFraction(ConfigError):
    pass


# --- estimation ---

class MissingCellsPresent(MissDagError):
    pass


class TooManyMissingInRow(MissDagError):
    pass


class EmptyList(MissDagError):
    pass


class AllZero(MissDagError):
    pass


# --- discovery ---

class KnowledgeViolatedByInput(MissDagError):
    pass


class KnowledgeInfeasible(MissDagError):
    pass
