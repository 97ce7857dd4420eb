from hypothesis import settings

# Fixed examples and no time limit, so every run checks the same cases.
settings.register_profile("ghzcert", derandomize=True, deadline=None, database=None)
settings.load_profile("ghzcert")
