// lint-as: src/xplain/compat.h
// Known-bad corpus: a header in src/xplain reaching into concrete case
// studies.  No file name is exempt from the core's case-agnosticism: a
// shim header that needs te/ or vbp/ types belongs in src/cases, and the
// pipeline core sees cases only through the HeuristicCase interface.
#pragma once

#include "te/demand_pinning.h"  // expect-lint: layering
#include "vbp/ff_model.h"       // expect-lint: layering
#include "xplain/pipeline.h"    // same layer: OK
