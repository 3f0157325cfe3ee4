"""Numerical hyperbolic geometry in four layers: closed-form trigonometry
(``trig``), the upper-half-plane kernel (``halfplane``), right-angled
polygons and their moduli (``polygons``), and the first and second
variation of chord length under shears (``hessian``)."""

__version__ = "0.1.0"
