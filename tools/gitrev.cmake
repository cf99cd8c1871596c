# Stamp the current git revision and the build's configuration into a
# generated header. Runs at build time (custom target), so the rev tracks
# HEAD without reconfiguring; writes only when the content changes to
# avoid spurious rebuilds.
#
# Inputs: -DGIT_DIR=<repo root> -DOUT=<header path>
#         -DBUILD_TYPE=<CMAKE_BUILD_TYPE> -DCXX_FLAGS=<effective flags>

execute_process(
    COMMAND git -C "${GIT_DIR}" rev-parse --short HEAD
    OUTPUT_VARIABLE rev
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR rev STREQUAL "")
    set(rev "unknown")
endif()

execute_process(
    COMMAND git -C "${GIT_DIR}" status --porcelain
    OUTPUT_VARIABLE dirty
    ERROR_QUIET)
if(NOT dirty STREQUAL "")
    set(rev "${rev}-dirty")
endif()

if(BUILD_TYPE STREQUAL "")
    set(BUILD_TYPE "unknown")
endif()
# C string literal escaping for the flags (they may carry -D"..." defs).
string(REPLACE "\\" "\\\\" flags "${CXX_FLAGS}")
string(REPLACE "\"" "\\\"" flags "${flags}")
string(STRIP "${flags}" flags)

set(content "#define TAKO_GIT_REV \"${rev}\"\n")
string(APPEND content "#define TAKO_BUILD_TYPE \"${BUILD_TYPE}\"\n")
string(APPEND content "#define TAKO_CXX_FLAGS \"${flags}\"\n")

if(EXISTS "${OUT}")
    file(READ "${OUT}" old)
else()
    set(old "")
endif()

if(NOT content STREQUAL old)
    file(WRITE "${OUT}" "${content}")
endif()
