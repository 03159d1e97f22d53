"""Plain reference implementations that the tests compare the solver with.

They work on a ``PackingState`` and trade all speed for directness, so
the library does not ship them:

- ``reference.oracle``: voxel volume counting, a DP knapsack, and the
  solver's search with no bound, for desk-scale instances.
- ``reference.ranking``: the coplanarity score and the candidate ranking
  that ``FlatState.score`` and ``FlatState.ranked`` must equal.
- ``reference.bounds``: the node bound that ``_Searcher._closed`` must
  decide by.
"""
