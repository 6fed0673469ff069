"""Tenfold-way symmetry classification and random-matrix ensembles.

The package classifies quantum-mechanical symmetry settings into the ten
symmetry classes (Dyson's threefold way plus the post-Dyson families),
samples the matching Gaussian and circular random-matrix ensembles, and
verifies the Fock-space and symmetric-space constructions behind the
classification numerically at desk scale.
"""

from .antiunitary import (AntiUnitaryOp, SectorPairing, TransferredT,
                          parity, sector_action, transfer_T)
from .classifier import (BlockEntry, ClassificationReport, ClassLabel,
                         CompatibleSpace, SymmetrySetting, build_nambu,
                         canonical_setting, classify_tenfold,
                         classify_threefold, compatible_space,
                         hilbert_setting, label)
from .ensembles import (Constraint, EnsembleSpec, Histogram, SpectralStats,
                        class_constraints, pooled_spacing_ratios,
                        sample_circular, sample_gaussian, spacing_ratios,
                        spectral_density)
from .focklab import (FockSpace, build_fock, covering_check, lift_one_body,
                      lift_unitary, majorana_basis, nambu_generator,
                      particle_hole, twisted_ph_transfer_check, wedge)
from .grouprep import (GroupAction, IsotypicBlock, close_group,
                       commutant_basis, fs_indicator, isotypic_decompose,
                       lie_algebra_action, self_duality_type,
                       spin_half_action, trivial_action, u1_charge_action)
from .linalg import (HermitianEigenSystem, RngStream, eig_hermitian,
                     haar_orthogonal, haar_symplectic_unitary, haar_unitary)
from .symspace import (CartanPair, ClosureResult, TangentDecomposition,
                       cartan_embed, closure_check, geodesic_inversion,
                       in_space, involution, tangent_split)

__version__ = "0.1.0"
