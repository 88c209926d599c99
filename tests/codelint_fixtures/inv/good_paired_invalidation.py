"""INV01 good fixture: every scope that clears the zone cache also
invalidates the layered answer cache (or disarms it wholesale)."""


class World:
    def __init__(self):
        self._zone_cache = {}
        self.answer_cache = object()

    def set_time(self, stamp):
        self._zone_cache.clear()
        self.answer_cache.invalidate()

    def reset(self):
        self._zone_cache.clear()
        self.answer_cache.set_scope(None)

    def install_faults(self, schedule):
        self._zone_cache.clear()
        self.set_answer_cache(False)

    def set_answer_cache(self, enabled):
        self.answer_cache.set_enabled(enabled)


def checkin(world):
    world._zone_cache.clear()
    world.answer_cache.invalidate()


def unrelated_clear(records):
    # clearing some other mapping never needs pairing
    records.clear()
    return records
