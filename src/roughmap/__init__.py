"""Rough-set gap analysis and grading for hierarchical concept maps."""

from .analysis import analyze
from .conceptmap import integrate, validate_map
from .grading import grade_records, parse_report, remediation_sequence, render_report
from .roughset import ApproximationSpace, lower_approximation, regions, rough_membership

__version__ = "0.1.0"
