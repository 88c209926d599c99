"""INV01 bad fixture: zone-cache clears with no answer-cache
invalidation in the same scope — the fast path keeps serving answers
rendered from the zones just thrown away."""


class World:
    def __init__(self):
        self._zone_cache = {}
        self.answer_cache = object()

    def set_time(self, stamp):
        self._zone_cache.clear()  # INV01: no paired invalidation here

    def reset(self):
        self._zone_cache.clear()  # INV01: re-arming drops no answer
        self.set_answer_cache(True)

    def elsewhere(self):
        # an invalidation in a *different* method does not pair
        self.answer_cache.invalidate()


def checkin(world):
    world._zone_cache.clear()  # INV01
    return world
