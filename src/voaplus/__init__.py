"""Combinatorial invariants of integral lattices and binary codes:
coset short-vector counts, Construction-B decompositions, module-class
orbits, and the automorphism-group orders they determine."""

from .lattice import (Coset, DiscriminantGroup, Lattice, count_norm,
                      direct_sum, orthogonal_group_order, rescale,
                      vectors_of_norm)
from .codes import (BinaryCode, hamming8, make_code, repetition_code, rm14,
                    rm14_subcode, words_of_weight, zero_code)
from .constrb import (Frame, FrameCosets, FrameDecomposition,
                      StructuralCosets, build_construction_b, decompose,
                      extract_code, extract_frame, frame_cosets,
                      structural_cosets)
from .orbit import (ModuleClass, OrbitReport, condition_a, condition_b,
                    condition_c, fusion_space, module_orbit,
                    twisted_character_count, twisted_character_count_mod2)
from .report import AutReport, OddReport, analyze, odd_split, stabilizer_order
from .catalog import CATALOG, CatalogEntry, parse_spec
from .selftest import run_selftest

__version__ = "0.1.0"
