"""Facial-video symptom-severity grading toolkit.

From-scratch autodiff tensor engine, three spatiotemporal classifiers,
a deterministic preprocessing pipeline, leave-one-subject-out evaluation,
and a synthetic video corpus for end-to-end testing.
"""

__version__ = "0.1.0"
