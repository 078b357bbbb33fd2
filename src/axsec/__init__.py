"""Attack and detection workbench for approximate gate-level arithmetic.

Both sides of one threat model under a single roof: an attacker hides a
rare-net-triggered payload inside an approximate arithmetic netlist
while staying inside the error and power slack the approximation opened
up, and a defender screens a set of functionally interchangeable
candidates for exactly that kind of tampering, without a golden
reference.  :mod:`axsec.experiment` wires the two into one reproducible
run; the ``axsec`` executable exposes every step on the command line.
"""

from .arith import ARCHS, ArchParams, gen_adder, gen_module, gen_multiplier
from .attack import (AttackConfig, BudgetCheck, BudgetConstraints,
                     HTInstance, ModuleSpec, StealthReport, attack_score,
                     characterize, check_budget, insert_trojan, mount,
                     verify_stealth)
from .designs import DesignSpec, bfly_spec, fir_spec, flatten
from .detect import (DetectConfig, DetectionReport, InstanceScore, Metrics,
                     NetlistReport, RankEntry, classify, defender_streams,
                     rank_by_error, score, suspect_instances)
from .errors import (AxsecError, BadParams, BadThreshold, BudgetInfeasible,
                     CycleError, EmptySet, LabelMismatch, NetlistError,
                     NoRareNets, NoWitness, ParseError, PortMismatch,
                     SemanticError, SignatureMismatch, UnitMismatch,
                     UnknownModule, WouldViolateTiming)
from .experiment import ExperimentConfig, ExperimentResult, run_experiment
from .netlist import Gate, GateKind, Instance, Netlist, NetlistBuilder
from .scoap import ScoapReport, scoap
from .sim import (ActivityReport, ErrorReport, Traces, VectorStream,
                  activity_profile, error_profile, power_proxy, power_ratio,
                  rare_nets, simulate)
from .sta import (DelayModel, TimingPath, arrival_times, critical_delay,
                  near_critical_paths, paths_to_instances, slacks)
from .textfmt import read_netlist, write_netlist

__version__ = "0.1.0"
