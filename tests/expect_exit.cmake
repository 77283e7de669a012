# Runs BIN with the one argument ARG and fails unless it exits with
# EXPECTED (a crash or an uncaught exception reports no exit code at all).
execute_process(COMMAND "${BIN}" "${ARG}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "'${BIN} ${ARG}': expected exit ${EXPECTED}, got '${rc}'")
endif()
