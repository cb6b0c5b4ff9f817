"""Counterfactual treatment-policy estimation for septic-patient cohorts.

Pipeline: synthetic (or ingested) cohort -> preprocessing -> behavioral
cloning / GAIL policies -> cross-subgroup counterfactual discrepancy
reports (KL, JS, MMD, Wasserstein).
"""

__version__ = "0.1.0"
