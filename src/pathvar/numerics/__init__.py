"""Certified scalar substrate: dyadics, intervals, trig enclosures, polynomials."""
