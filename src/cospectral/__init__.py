"""Co-spectral radii of subgroups from Schreier-graph data.

Core objects: reduced words and wreath normal forms (words), Stallings core
automata (stallings), coset oracles and ball windows (schreier), co-spectral
lower bounds and the cogrowth formula (spectral), finite measure-preserving
graphings (graphing), random subgroup samplers (irs), and the experiment
driver (experiments, cli).
"""
