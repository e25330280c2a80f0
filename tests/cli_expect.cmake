# Runs the drbml CLI once and checks how it fails:
#   cmake -DDRBML=path/to/drbml -DARGS="lint --entry" -DCODE=2
#         -DMESSAGE="--entry expects a value" -P cli_expect.cmake
# fails unless `drbml ARGS` exits with CODE and prints MESSAGE on stderr.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${DRBML}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${CODE}")
  message(FATAL_ERROR
          "drbml ${ARGS}: exit ${rc}, expected ${CODE}\nstdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "drbml ${ARGS}: stderr lacks '${MESSAGE}'\nstderr: ${err}")
endif()
