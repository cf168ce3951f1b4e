// px/stencil/stencil.hpp — umbrella for the stencil benchmark library.
#pragma once

#include "px/stencil/convergence.hpp"
#include "px/stencil/field2d.hpp"
#include "px/stencil/field3d.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_dataflow.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/stencil/heat1d_vns.hpp"
#include "px/stencil/jacobi2d.hpp"
#include "px/stencil/jacobi2d_blocked.hpp"
#include "px/stencil/jacobi2d_distributed.hpp"
#include "px/stencil/jacobi2d_vns.hpp"
#include "px/stencil/jacobi3d_blocked.hpp"
#include "px/stencil/reference.hpp"
