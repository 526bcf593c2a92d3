"""Exact-arithmetic feasibility checker for monotone spin Lagrangian
cobordism claims: clean-intersection homology feeds a column-supported
spectral sequence whose consistent outcomes are fed into long
exact-sequence constraints, yielding machine-checkable nonexistence
certificates."""

from .abgroup import (FgAbGroup, GroupHom, IntMatrix, cokernel, direct_sum,
                      hom_images, smith_normal_form, tensor, tor)
from .graded import GradedGroup, LaurentGrading, coefficient_change
from .topology import (Explicit, LagrangianDescriptor, Product, RealProjective, Sphere,
                       homology, mayer_vietoris_spin_check, monotonicity_constant, pair_maslov)
from .spectra import (BigradedPage, BranchTree, build_e1,
                      solve_floer, turn_page)
from .exactness import (ExactSequenceProblem, FeasibilityVerdict, Known, Unknown,
                        build_cobordism_sequences, certify_nonexistence,
                        check_feasibility, verify_certificate, verify_witness)
from .cli import ObstructionScenario, RunReport, parse_scenario, run

__version__ = "0.1.0"
