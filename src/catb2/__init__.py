"""Exact arithmetic and identity verification for the extended Catalan
arrangement Cat(B2, m): candidate basis derivations, their recurrence and
evaluation identities, and the Saito-criterion determinant check.
"""
