"""Exact fully coprime spectra and Zariski topologies for bicomodules.

The package computes, over F_p and Q with exact arithmetic: subbicomodule
lattices, bicolinear endomorphism rings, annihilator/kernel correspondences,
internal coproducts, fully coprime and fully cosemiprime spectra, the
Zariski-style topologies they carry, and literal verdicts for the structural
statements relating all of these.
"""

from .analysis import InstanceAnalysis, analyze
from .bicomodule import (Bicomodule, Centralizer, centralizer, phi_matrix,
                         quotient, regular_bicomodule, restrict)
from .catalog import (Poset, comatrix, direct_sum, divided_power, grouplike,
                      incidence, random_instance, resolve_ref,
                      resolve_ref_to_bicomodule, right_comodule)
from .checks import Verdict, morphism_checks, run_checks, statement_names
from .coalgebra import (Coalgebra, CoalgebraMorphism, DualAlgebra,
                        identity_morphism)
from .coprime import (CoproductCache, IdealSide, SpectrumReport, ideal_side,
                      internal_coproduct, is_fully_coprime,
                      is_fully_cosemiprime, ke_product_bound, spectrum)
from .endo import (EndoAlgebra, an, endo_algebra, enumerate_ideals,
                   jacobson_radical, ke, prime_radical, radical_char0)
from .fields import Field, parse_field_name, prime_field, rationals
from .instancefile import (load_instance, parse_instance, render_instance,
                           save_instance)
from .lattice import (Lattice, cyclic_subbicomodule, enumerate_lattice,
                      is_fully_invariant, predicates, socle_report)
from .linalg import Matrix, Subspace
from .oracle import OracleReport, diff_against_engine, run_oracle
from .zariski import (ZariskiTopology, build_topology, separation,
                      spectral_map, topology_report)

__version__ = "0.1.0"
