// Fixture: a header whose include graph reaches itself must trip
// include-cycle (and nothing else). Self-inclusion is the minimal cycle;
// geo -> geo is layering-clean, so only the cycle rule fires.
#include "geo/bad_include_cycle.h"
