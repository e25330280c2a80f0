# Runs `drbml analyze --detector DETECTOR` on a program that spins before
# it forks a team, and checks that the run's fault is printed once: such
# a run takes no schedule decision, so the dynamic detector runs it once.
#   cmake -DDRBML=path/to/drbml -DDETECTOR=dynamic -DWORK=dir
#         -P cli_fault_once.cmake
file(MAKE_DIRECTORY "${WORK}")
set(program "${WORK}/spin-${DETECTOR}.c")
file(WRITE "${program}" "int main() { while (1) {} return 0; }\n")
execute_process(COMMAND "${DRBML}" analyze --detector "${DETECTOR}"
                        "${program}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "drbml analyze: exit ${rc}\nstdout: ${out}\nstderr: ${err}")
endif()
string(REGEX MATCHALL "run faulted: silent loop limit exceeded" faults
       "${out}")
list(LENGTH faults count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "drbml analyze --detector ${DETECTOR}: ${count} fault "
                      "lines, expected 1\nstdout: ${out}")
endif()
