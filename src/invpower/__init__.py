"""Extract the large-x behaviour f(x) ~ q0 + q1/x of a function from its
Taylor coefficients at a finite center, via inverse-power approximants
with exact closed-form binomial coefficients."""

__version__ = "0.1.0"
