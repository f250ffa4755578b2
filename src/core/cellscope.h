// CellScope — umbrella public header.
//
// Reproduction of "Understanding Mobile Traffic Patterns of Large Scale
// Cellular Towers in Urban Environment" (Wang et al., IMC 2015).
// Include this to get the full public API; see README.md for a quickstart
// and DESIGN.md for the module map.
#pragma once

#include "analysis/commute_flows.h"        // IWYU pragma: export
#include "analysis/component_analysis.h"   // IWYU pragma: export
#include "analysis/freq_features.h"        // IWYU pragma: export
#include "analysis/labeling.h"             // IWYU pragma: export
#include "analysis/poi_features.h"         // IWYU pragma: export
#include "analysis/time_features.h"        // IWYU pragma: export
#include "city/city_model.h"               // IWYU pragma: export
#include "city/deployment.h"               // IWYU pragma: export
#include "city/functional_region.h"        // IWYU pragma: export
#include "city/poi.h"                      // IWYU pragma: export
#include "city/tower.h"                    // IWYU pragma: export
#include "common/error.h"                  // IWYU pragma: export
#include "common/rng.h"                    // IWYU pragma: export
#include "common/stats.h"                  // IWYU pragma: export
#include "common/string_util.h"            // IWYU pragma: export
#include "common/table.h"                  // IWYU pragma: export
#include "common/time_grid.h"              // IWYU pragma: export
#include "core/experiment.h"               // IWYU pragma: export
#include "dsp/spectrum.h"                  // IWYU pragma: export
#include "forecast/anomaly.h"              // IWYU pragma: export
#include "forecast/metrics.h"              // IWYU pragma: export
#include "forecast/pattern_forecaster.h"   // IWYU pragma: export
#include "forecast/seasonal_naive.h"       // IWYU pragma: export
#include "forecast/spectral_forecaster.h"  // IWYU pragma: export
#include "geo/density_grid.h"              // IWYU pragma: export
#include "geo/address_codec.h"             // IWYU pragma: export
#include "geo/latlon.h"                    // IWYU pragma: export
#include "geo/spatial_index.h"             // IWYU pragma: export
#include "mapred/thread_pool.h"            // IWYU pragma: export
#include "ml/hierarchical.h"               // IWYU pragma: export
#include "ml/kmeans.h"                     // IWYU pragma: export
#include "ml/validity.h"                   // IWYU pragma: export
#include "opt/simplex_ls.h"                // IWYU pragma: export
#include "pipeline/cleaner.h"              // IWYU pragma: export
#include "pipeline/density.h"              // IWYU pragma: export
#include "pipeline/vectorizer.h"           // IWYU pragma: export
#include "traffic/intensity_model.h"       // IWYU pragma: export
#include "traffic/mobility.h"              // IWYU pragma: export
#include "traffic/mobility_trace.h"        // IWYU pragma: export
#include "traffic/profiles.h"              // IWYU pragma: export
#include "traffic/trace_codec.h"           // IWYU pragma: export
#include "traffic/trace_generator.h"       // IWYU pragma: export
#include "viz/ascii_plot.h"                // IWYU pragma: export
#include "viz/figure_export.h"             // IWYU pragma: export
