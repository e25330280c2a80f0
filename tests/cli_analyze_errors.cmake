# Runs `drbml analyze --detector static --jobs 4 bad1.c good.c bad2.c`
# ten times, where bad1.c and bad2.c do not parse and good.c is a racy
# corpus program, and checks that every run exits 2, prints bad1.c's
# error before bad2.c's on stderr, and prints good.c's verdict on stdout.
#   cmake -DDRBML=path/to/drbml -DWORK=dir -P cli_analyze_errors.cmake
file(MAKE_DIRECTORY "${WORK}")
set(bad1 "${WORK}/bad1.c")
set(good "${WORK}/good.c")
set(bad2 "${WORK}/bad2.c")
file(WRITE "${bad1}" "int main( {\n")
file(WRITE "${bad2}" "int main() { return @; }\n")
execute_process(COMMAND "${DRBML}" entry DRB001-antidep1-orig-yes.c
                RESULT_VARIABLE rc
                OUTPUT_FILE "${good}")
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "drbml entry: exit ${rc}")
endif()
foreach(run RANGE 1 10)
  execute_process(COMMAND "${DRBML}" analyze --detector static --jobs 4
                          "${bad1}" "${good}" "${bad2}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR
            "run ${run}: exit ${rc}, expected 2\nstdout: ${out}\nstderr: ${err}")
  endif()
  string(FIND "${err}" "bad1.c: error:" first)
  string(FIND "${err}" "bad2.c: error:" second)
  if(first EQUAL -1 OR second EQUAL -1 OR NOT first LESS second)
    message(FATAL_ERROR
            "run ${run}: stderr lacks bad1.c's then bad2.c's error\nstderr: ${err}")
  endif()
  string(FIND "${out}" "good.c: static: DATA RACE" verdict)
  if(verdict EQUAL -1)
    message(FATAL_ERROR "run ${run}: stdout lacks good.c's verdict\nstdout: ${out}")
  endif()
endforeach()
