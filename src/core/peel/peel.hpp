// Umbrella header for the peeling substrate: residual bookkeeping,
// containment detection and instrumentation. See the
// "Peeling substrate" section of DESIGN.md for the layer diagram.
#pragma once

#include "core/peel/containment.hpp"   // IWYU pragma: export
#include "core/peel/peel_stats.hpp"    // IWYU pragma: export
#include "core/peel/residual.hpp"      // IWYU pragma: export
