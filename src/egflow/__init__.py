"""Coupled Darcy flow / miscible transport on adaptive quadtree meshes.

Enriched bilinear elements (continuous vertices plus one constant per cell),
interior-penalty pressure solves with conservative flux recovery, upwinded
transport with entropy-viscosity stabilization, and residual-driven mesh
adaptation.
"""

from .mesh import (AdaptBounds, AdaptReport, MeshError, QuadMesh,
                   build_uniform)
from .egspace import AssemblyContext, AssemblyPlan, EGDofMap, interpolate
from .linalg import GmresResult, LaggedLU, SolverError
from .physics import (DispersionParams, ViscosityModel, dispersion_tensor,
                      draw_centers, mix_viscosity, mobility,
                      random_permeability, single_vortex_velocity)
from .flow import (FaceFlux, FlowBC, FlowParams, assemble_pressure,
                   bdf_apply, bdf_coefficients, flux_from_velocity,
                   local_conservation_residual, reconstruct_flux,
                   solve_reduced, weights)
from .transport import (TransportBC, TransportParams, assemble_transport,
                        source_split, upwind_value)
from .stabilization import (EntropyConfig, IndicatorField, ViscosityField,
                            entropy_eval, extrapolate_star, indicator,
                            viscosity)
from .amr import MarkingPolicy, Marks, adapt_and_transfer, mark
from .driver import (ConfigError, RunResult, ScenarioConfig, SCENARIOS,
                     finger_diagnostics, load_config_file, make_config, run,
                     tip_profile, write_csv, write_vtk)

__version__ = "0.1.0"
