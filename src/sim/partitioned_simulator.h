// Former home of the PDES configuration, kept as an include name for
// perfbench/src/summation.cc. New code includes sim/pdes.h.
#pragma once

#include "sim/pdes.h"
