// `__half` comes with the shim (as `_Float16`).
#pragma once
#include "cuda_shim.h"
