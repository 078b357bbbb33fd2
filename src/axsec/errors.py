"""Exception types shared across the workbench; each derives from
:class:`AxsecError` and keeps its builtin base."""

import math

import numpy as np


class AxsecError(Exception):
    """Base class of every workbench error."""


class NetlistError(AxsecError):
    """Base class for structural netlist problems."""


class ParseError(NetlistError):
    """Malformed netlist text.  Carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SemanticError(NetlistError):
    """Structurally well-formed input that violates an IR invariant
    (duplicate driver, undriven net, unknown instance tag, bad arity)."""


class CycleError(NetlistError):
    """Combinational loop.  ``cycle`` holds the net ids of one loop."""

    def __init__(self, cycle):
        super().__init__(f"combinational cycle through nets {list(cycle)}")
        self.cycle = tuple(cycle)


class PortMismatch(NetlistError):
    """Hierarchical port map names a missing port or widths disagree."""


class UnknownModule(NetlistError):
    """Instance references something that is not a module."""


class BadParams(AxsecError, ValueError):
    """Generator or analysis parameters outside the supported range."""


class BadThreshold(AxsecError, ValueError):
    """Rarity threshold outside (0, 0.5)."""


def check_ranges(obj, table, error=BadParams):
    """Raise ``error`` for the first row of ``table`` out of range.  A row
    is (name, in range, wanted), the value read off ``obj`` or a dict of
    argument values, (name,) for a value read the same way that must be a
    whole number (a Python or numpy integer, bools included), or (name,
    value) for a value that must be positive and finite, such as a clock
    period.  Written as comparisons, the checks are false for NaN, so NaN
    is rejected as well."""
    for name, *rule in table:
        if len(rule) == 1:
            got, = rule
            ok, want = 0 < got < math.inf, "positive and finite"
        else:
            got = obj[name] if isinstance(obj, dict) else getattr(obj, name)
            ok, want = rule or (isinstance(got, (int, np.integer)),
                                "a whole number")
        if not ok:
            got = got.item() if isinstance(got, np.generic) else got
            raise error(f"{name} must be {want}, got {got!r}")


class UnitMismatch(AxsecError, ValueError):
    """Budget terms were measured under different stream settings."""


class NoRareNets(AxsecError, RuntimeError):
    """Trigger construction found no usable rare net candidates."""


class NoWitness(AxsecError, RuntimeError):
    """No input assignment provably fires the trigger; insertion aborted."""


class WouldViolateTiming(AxsecError, RuntimeError):
    """Inserted logic would push a path past the clock constraint."""


class SignatureMismatch(AxsecError, ValueError):
    """Candidate netlists disagree on primary I/O words."""


class EmptySet(AxsecError, ValueError):
    """An operation was handed an empty candidate set."""


class LabelMismatch(AxsecError, ValueError):
    """Ground-truth labels do not cover the report under scoring."""


class BudgetInfeasible(AxsecError, RuntimeError):
    """No architecture assignment satisfies the error/power budget."""
