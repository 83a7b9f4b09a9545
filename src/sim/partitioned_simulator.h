// Former home of the PDES configuration, kept as an include name for
// perfbench/src/summation.cc. New code includes sim/ambient.h (the installer)
// or sim/pdes.h (the value types).
#pragma once

#include "sim/ambient.h"
