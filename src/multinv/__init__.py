"""Multi-location stochastic inventory control.

Solves coupled problems exactly by dynamic programming on a discretized
joint state space, constructs simple decoupled base-stock and (s,S)
policies and an online cost-balancing policy, fits sector/affine bounds
to nonlinear ordering costs, and measures empirical cost ratios against
the theoretical worst-case guarantees.
"""

from .model import (DemandModel, DiscreteMarginal, Finite, Grid,
                    HoldingBacklogCost, InfiniteAveraged, OrderingCost, Piece,
                    Problem, UniformMarginal, ValidationError,
                    affine_cost, demand_pmf, linear_cost,
                    single_location_problem, validate_problem)
from .dp import (SizeError, StructureError, TabularPolicy, ValueFunction,
                 evaluate_policy_exact, extract_base_stock, extract_sS,
                 solve_joint_dp)
from .policies import (BaseStockPolicy, DecoupledPolicy, ExplicitVPolicy,
                       Policy, SSPolicy, TabularGridPolicy, make_pi_diamond,
                       make_pi_square, make_pi_v)
from .balancing import (BalancingPolicy, BalancingState,
                        expected_backlog_proxy, expected_holding_proxy,
                        make_balancing_policy)
from .stationary import optimize_individual, optimize_joint, stationary_cost
from .bounds import (AffineFit, FitUnavailableError, NotSectorBoundableError,
                     SectorFit, fit_affine, fit_sector, theoretical_ratio)
from .sim import (RatioReport, SimConfig, estimate_cost, ratio_heatmap,
                  verify_cost_transformation)
from . import instances

__version__ = "0.1.0"
