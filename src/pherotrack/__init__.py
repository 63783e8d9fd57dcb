"""Distributed multi-agent search and track.

A discrete-time simulation stack for cooperative target search and tracking
with unicycle agents: information-form estimate fusion in translation-relative
local frames, virtual-pheromone coverage control, two-phase distributed-greedy
target selection, and Monte-Carlo comparisons against Levy-walk, centralized
auction, local-greedy, and anti-flocking baselines.
"""

from .estimation import (EPS_INV, GaussianEstimate, SingularCovarianceError,
                         entropy, fuse, propagate)
from .sensing import (AnalyticCovMap, BoundingBox, CalibrationTable,
                      PolarMeasurement, SectorFov, analytic_cov_at,
                      bbox_to_polar, best_viewpoint, conservative_cov,
                      contains, interpolate_cov, load_calibration_csv,
                      polar_to_estimate, save_calibration_csv,
                      spherical_to_euclidean, synthetic_calibration_table)
from .tracking import (LocalTargetList, NeighborTargetList, TargetRecord,
                       TrackerConfig, combined_estimate, exploitation_waypoint,
                       select_target, transform_neighbor_estimate,
                       update_storage)
from .pheromone import (GridGeometry, Pheromone, PheromoneConfig,
                        PheromoneGrid, PheromoneList, build_map, delta_map,
                        diffuse_region, exploration_waypoint,
                        pheromone_value_at, update_pheromones)
from .agent import (AgentBrain, BroadcastPacket, ControlInput, PdGains,
                    Telemetry, pd_control)
from .world import (AssumptionError, PRESETS, WorldConfig, WorldState,
                    deliver_broadcasts, hardware_table_preset, make_state,
                    sense_displacement, sense_targets, sim_2d_preset,
                    step_dynamics, target_in_fov)
from .baselines import (AuctionConfig, LevyConfig, NoFeasibleAssignmentError,
                        VisitedMap, antiflocking_waypoint, auction_assign,
                        levy_step_length, levy_waypoint, local_greedy_select)
from .harness import (ExperimentSpec, RunMetrics, objective_H,
                      run_monte_carlo, run_sweep, simulate_run, time_to_track)

__version__ = "0.1.0"
