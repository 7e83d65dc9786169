"""Symmetric-tensor calculus, generalized ray transforms, and their normal
operators, with exact and numerical verification of the identities behind
unique-continuation arguments in tensor tomography."""

__version__ = "0.1.0"
